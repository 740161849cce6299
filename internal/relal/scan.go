// Pushdown-aware scanning: base tables are served by a Source that
// accepts a column subset and a sargable predicate. Storage formats
// (rcfile) keep per-row-group min/max zone maps and skip decompressing
// groups that cannot satisfy the predicate; the in-memory TableSource
// models the same decision over virtual row groups so cost models see
// the skipped-bytes ratio even when the data never left memory.
//
// Pruning is conservative: a condition only rules a group out when the
// group's [min, max] interval cannot intersect the condition's bounds,
// so a scan through any Source followed by a Where over the same
// conditions (ZonePredicate.On) produces exactly the rows a full scan
// followed by that Where would.
package relal

import "math"

// ZoneMap is the min/max summary of one column chunk (one column within
// one row group). Exactly the pair matching Kind is meaningful. For a
// dictionary-encoded Str chunk, CodeMin/CodeMax additionally carry the
// min/max codes (the dictionary is sorted, so they pick out the same
// values StrMin/StrMax spell out; pruning keeps comparing strings so a
// predicate never needs the chunk's dictionary).
type ZoneMap struct {
	Kind               Type
	IntMin, IntMax     int64
	FloatMin, FloatMax float64
	StrMin, StrMax     string
	CodeMin, CodeMax   uint32
	HasCodes           bool
}

// ZoneOf computes the zone map of v's cells in physical positions
// [lo, hi). It panics if the range is empty (a row group always holds at
// least one row).
func ZoneOf(v *Vector, lo, hi int) ZoneMap {
	z := ZoneMap{Kind: v.Kind}
	switch v.Kind {
	case Int:
		z.IntMin, z.IntMax = v.Ints[lo], v.Ints[lo]
		for _, x := range v.Ints[lo+1 : hi] {
			if x < z.IntMin {
				z.IntMin = x
			}
			if x > z.IntMax {
				z.IntMax = x
			}
		}
	case Float:
		z.FloatMin, z.FloatMax = v.Floats[lo], v.Floats[lo]
		for _, f := range v.Floats[lo+1 : hi] {
			if f < z.FloatMin {
				z.FloatMin = f
			}
			if f > z.FloatMax {
				z.FloatMax = f
			}
		}
	case Str:
		if v.DictVals != nil {
			// Sorted dictionary: min/max code is min/max value.
			z.CodeMin, z.CodeMax = v.Dict[lo], v.Dict[lo]
			for _, c := range v.Dict[lo+1 : hi] {
				if c < z.CodeMin {
					z.CodeMin = c
				}
				if c > z.CodeMax {
					z.CodeMax = c
				}
			}
			z.StrMin, z.StrMax = v.DictVals[z.CodeMin], v.DictVals[z.CodeMax]
			z.HasCodes = true
			return z
		}
		z.StrMin, z.StrMax = v.Strs[lo], v.Strs[lo]
		for _, s := range v.Strs[lo+1 : hi] {
			if s < z.StrMin {
				z.StrMin = s
			}
			if s > z.StrMax {
				z.StrMax = s
			}
		}
	}
	return z
}

// ZoneCond is one range condition on a column, and its only spelling: a
// scan prunes row groups with it and the plan's Where applies it row by
// row (On). A bound is inclusive unless its Open flag is set; pruning
// tests the closed hull, which only ever keeps extra groups. A NaN cell
// or bound matches nothing.
type ZoneCond struct {
	Col            string
	Kind           Type
	HasLo, HasHi   bool
	LoOpen, HiOpen bool
	IntLo, IntHi   int64
	FloLo, FloHi   float64
	StrLo, StrHi   string
}

// mayMatch reports whether a chunk with zone map z can contain a row
// satisfying the condition: the chunk's [min, max] must intersect the
// condition's closed interval.
func (c ZoneCond) mayMatch(z ZoneMap) bool {
	switch c.Kind {
	case Int:
		return !(c.HasLo && z.IntMax < c.IntLo) && !(c.HasHi && z.IntMin > c.IntHi)
	case Float:
		return !(c.HasLo && z.FloatMax < c.FloLo) && !(c.HasHi && z.FloatMin > c.FloHi)
	default:
		return !(c.HasLo && z.StrMax < c.StrLo) && !(c.HasHi && z.StrMin > c.StrHi)
	}
}

// On compiles the condition into a row test over t's column c.Col: one
// closed interval test for a number (a strict bound steps to the next
// representable value), a code interval for a dictionary string.
func (c ZoneCond) On(t *Table) Pred {
	switch c.Kind {
	case Int:
		v := t.IntCol(c.Col)
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if c.HasLo {
			if lo = c.IntLo; c.LoOpen {
				if lo == math.MaxInt64 {
					return none
				}
				lo++
			}
		}
		if c.HasHi {
			if hi = c.IntHi; c.HiOpen {
				if hi == math.MinInt64 {
					return none
				}
				hi--
			}
		}
		return within(v.data, v.sel, lo, hi)
	case Float:
		lo, hi := math.Inf(-1), math.Inf(1)
		if c.HasLo {
			if lo = c.FloLo; c.LoOpen {
				if lo == math.Inf(1) {
					return none
				}
				lo = math.Nextafter(lo, math.Inf(1))
			}
		}
		if c.HasHi {
			if hi = c.FloHi; c.HiOpen {
				if hi == math.Inf(-1) {
					return none
				}
				hi = math.Nextafter(hi, math.Inf(-1))
			}
		}
		v := t.FloatCol(c.Col)
		return within(v.data, v.sel, lo, hi)
	}
	v := t.StrCol(c.Col)
	if v.dict != nil {
		lo, hi := uint32(0), uint32(len(v.vals))
		if c.HasLo {
			lo = bound(v.vals, c.StrLo, c.LoOpen)
		}
		if c.HasHi {
			hi = bound(v.vals, c.StrHi, !c.HiOpen)
		}
		return v.codePred(lo, hi)
	}
	return v.rawPred(func(s string) bool {
		return !(c.HasLo && (s < c.StrLo || c.LoOpen && s == c.StrLo)) &&
			!(c.HasHi && (s > c.StrHi || c.HiOpen && s == c.StrHi))
	})
}

// IntBetween matches lo <= col <= hi.
func IntBetween(col string, lo, hi int64) ZoneCond {
	return ZoneCond{Col: col, Kind: Int, HasLo: true, HasHi: true, IntLo: lo, IntHi: hi}
}

// IntEq matches col == v.
func IntEq(col string, v int64) ZoneCond { return IntBetween(col, v, v) }

// FloatBetween matches lo <= col <= hi.
func FloatBetween(col string, lo, hi float64) ZoneCond {
	return ZoneCond{Col: col, Kind: Float, HasLo: true, HasHi: true, FloLo: lo, FloHi: hi}
}

// FloatLess matches col < hi.
func FloatLess(col string, hi float64) ZoneCond {
	return ZoneCond{Col: col, Kind: Float, HasHi: true, HiOpen: true, FloHi: hi}
}

// FloatGreater matches col > lo.
func FloatGreater(col string, lo float64) ZoneCond {
	return ZoneCond{Col: col, Kind: Float, HasLo: true, LoOpen: true, FloLo: lo}
}

// FloatAtLeast matches col >= lo.
func FloatAtLeast(col string, lo float64) ZoneCond {
	return ZoneCond{Col: col, Kind: Float, HasLo: true, FloLo: lo}
}

// StrBetween matches lo <= col <= hi (ISO date strings compare as
// dates, so date ranges push down as string ranges).
func StrBetween(col, lo, hi string) ZoneCond {
	return ZoneCond{Col: col, Kind: Str, HasLo: true, HasHi: true, StrLo: lo, StrHi: hi}
}

// StrRange matches lo <= col < hi — the half-open window of most TPC-H
// date intervals.
func StrRange(col, lo, hi string) ZoneCond {
	return ZoneCond{Col: col, Kind: Str, HasLo: true, HasHi: true, HiOpen: true, StrLo: lo, StrHi: hi}
}

// StrGreater matches col > lo.
func StrGreater(col, lo string) ZoneCond {
	return ZoneCond{Col: col, Kind: Str, HasLo: true, LoOpen: true, StrLo: lo}
}

// StrAtMost matches col <= hi.
func StrAtMost(col, hi string) ZoneCond {
	return ZoneCond{Col: col, Kind: Str, HasHi: true, StrHi: hi}
}

// StrLess matches col < hi.
func StrLess(col, hi string) ZoneCond {
	return ZoneCond{Col: col, Kind: Str, HasHi: true, HiOpen: true, StrHi: hi}
}

// StrEq matches col == v.
func StrEq(col, v string) ZoneCond { return StrBetween(col, v, v) }

// ZonePredicate is a conjunction of sargable conditions pushed into a
// scan. nil means no pushdown.
type ZonePredicate []ZoneCond

// On compiles every condition into a row test over t — the Where
// conjunction that applies exactly what the scan pruned with.
func (p ZonePredicate) On(t *Table) []Pred {
	preds := make([]Pred, len(p))
	for i, c := range p {
		preds[i] = c.On(t)
	}
	return preds
}

// MayMatch reports whether a row group can contain a matching row. zone
// looks up the group's zone map by column name; a column the storage
// has no zone map for (or whose type disagrees) cannot prune.
func (p ZonePredicate) MayMatch(zone func(col string) (ZoneMap, bool)) bool {
	for _, c := range p {
		z, ok := zone(c.Col)
		if !ok || z.Kind != c.Kind {
			continue
		}
		if !c.mayMatch(z) {
			return false
		}
	}
	return true
}

// ScanStats reports what a pushdown-aware scan touched, in encoded
// column-chunk bytes.
type ScanStats struct {
	// BytesRead is the chunk bytes the scan logically decoded (requested
	// columns in surviving row groups), whether served by fresh
	// decompression or by a shared chunk cache.
	BytesRead int64
	// BytesSkipped is the chunk bytes never decompressed: unrequested
	// columns plus every column of zone-pruned groups.
	BytesSkipped int64
	// BytesFromCache is the portion of BytesRead served from a shared
	// decompressed-chunk cache instead of fresh gzip inflation. Keeping
	// it a subset of BytesRead (rather than a third bucket) means the
	// skipped fraction the cost models replay is identical with caching
	// on or off.
	BytesFromCache int64
	// GroupsRead/GroupsSkipped count row groups decoded vs pruned.
	GroupsRead, GroupsSkipped int
	// CacheHits/CacheMisses count chunk-cache lookups. Both stay zero
	// when no cache is attached, so hit ratio 0/0 means "uncached".
	CacheHits, CacheMisses int
	// CorruptChunks counts chunks whose checksum failed verification.
	// A non-zero count never accompanies silent wrong rows: the scan
	// that found the corruption returned an error, and the store either
	// degraded to redundant data or propagated the failure.
	CorruptChunks int
}

// Add accumulates other into s.
func (s *ScanStats) Add(other ScanStats) {
	s.BytesRead += other.BytesRead
	s.BytesSkipped += other.BytesSkipped
	s.BytesFromCache += other.BytesFromCache
	s.GroupsRead += other.GroupsRead
	s.GroupsSkipped += other.GroupsSkipped
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.CorruptChunks += other.CorruptChunks
}

// SkippedScanFracs returns, per base table, the fraction of scan bytes
// the log's pushdown-aware scans could skip (column subsets plus
// zone-map group pruning). Multiple scans of one table keep the most
// conservative (smallest) fraction. Both cost models consume the log
// through this helper, so their pushdown what-ifs (Hive's
// PredicatePushdown, PDW's SegmentElimination) discount exactly the
// same bytes.
func (l StepLog) SkippedScanFracs() map[string]float64 {
	fracs := map[string]float64{}
	for _, step := range l.Steps {
		if step.Kind != StepScan || step.LeftBase == "" {
			continue
		}
		tot := step.ScanBytesRead + step.ScanBytesSkipped
		if tot == 0 {
			continue
		}
		frac := float64(step.ScanBytesSkipped) / float64(tot)
		if cur, ok := fracs[step.LeftBase]; !ok || frac < cur {
			fracs[step.LeftBase] = frac
		}
	}
	return fracs
}

// Source provides base tables to the Scan operator. Implementations
// decide how much of the table the requested columns and predicate let
// them avoid materializing.
type Source interface {
	SrcName() string
	SrcSchema() Schema
	// ScanTable returns the table restricted to cols (nil = every
	// column), plus the scan's byte accounting. Its rows are any subset
	// of the base rows, in base-row order, that keeps every row
	// satisfying pred: whole pruned row groups and exactly filtered rows
	// are both allowed, so a plan must apply every condition it pushes.
	// The returned table must be safe to wrap in zero-copy views.
	ScanTable(cols []string, pred ZonePredicate) (*Table, ScanStats)
}

// DefaultScanGroupRows is the virtual row-group size TableSource uses
// for its zone maps; it matches rcfile's on-disk default so the two
// backends make the same group-pruning decisions. The byte accounting
// still differs in weighting: TableSource reports uncompressed encoded
// chunk bytes while rcfile reports per-chunk stored bytes, gzip'd where
// that more than halves them, so the skipped fraction is a model of the
// on-disk ratio, not a reproduction of it.
const DefaultScanGroupRows = 16 * 1024

// tableScanInfo is the cached per-group scan metadata of an in-memory
// table.
type tableScanInfo struct {
	rows  []int       // per group: row count
	zones [][]ZoneMap // per group, per column
	bytes [][]int64   // per group, per column: encoded chunk bytes
}

// FORWidth returns the packed frame-of-reference byte width for a
// value span: 0 (constant), 1, 2, or 4; 8 means "doesn't pay, store
// plain".
func FORWidth(span uint64) int {
	switch {
	case span == 0:
		return 0
	case span <= 0xFF:
		return 1
	case span <= 0xFFFF:
		return 2
	case span <= 0xFFFFFFFF:
		return 4
	}
	return 8
}

// Modeled RCF chunk payload sizes (pre-gzip), the exact lengths of the
// layouts internal/rcfile writes. All include the chunk's
// self-describing header bytes.

// DeltaChunkBytes is the int frame-of-reference payload: width byte +
// 8-byte base + packed deltas.
func DeltaChunkBytes(rows, width int) int64 { return 9 + int64(rows)*int64(width) }

// GDictChunkBytes is the global-dict code payload: width byte + 4-byte
// code base + packed frame-of-reference codes.
func GDictChunkBytes(rows, width int) int64 { return 5 + int64(rows)*int64(width) }

// GDictRLEChunkBytes is the run-length global-dict payload: width byte
// + code base + run count + (packed code, 4-byte length) per run.
func GDictRLEChunkBytes(runs, width int) int64 { return 9 + int64(runs)*int64(width+4) }

// DecimalChunkBytes is the decimal float payload: width byte + exponent
// byte + 8-byte base + packed frame-of-reference integer units.
func DecimalChunkBytes(rows, width int) int64 { return 10 + int64(rows)*int64(width) }

// Chunk encodings, numbered as the RCFile footer's enc byte. Runs encode
// only dictionary codes; enc byte 3 is retired and no file holds it.
const (
	encPlain    = byte(0) // length-prefixed strings / fixed 8-byte numerics
	encGDict    = byte(1) // FOR-packed global codes (dict Str)
	encGDictRLE = byte(2) // run-length encoded global codes (dict Str)
	encDelta    = byte(4) // FOR-packed values (Int)
	encDecimal  = byte(5) // FOR-packed integer units of 10^-e (Float)
)

// MaxDecimalExp is the largest decimal exponent: a Float chunk packs as
// decimal only when every value is a whole number of 10^-e units for
// some e in 0…MaxDecimalExp.
const MaxDecimalExp = 4

// ChunkPlan is the storage decision for one column chunk: which RCF
// encoding lays rows [lo, hi) of a vector down smallest, and the numbers
// that decided it, which are also what the chosen layout and the footer
// store.
type ChunkPlan struct {
	// Enc is the RCFile enc byte: 0 plain, 1 gdict, 2 gdict+rle,
	// 4 delta, 5 decimal.
	Enc byte
	// Bytes is Enc's modeled payload size before gzip.
	Bytes int64
	// Width is the packed cell width of gdict, gdict+rle, delta and
	// decimal payloads: the FORWidth of the chunk's code or value span.
	Width int
	// Runs counts maximal runs of equal adjacent dict codes; every other
	// chunk reports 0.
	Runs int
	// Exp and Base describe a decimal payload: every value x is
	// float64(k)/10^Exp for an integer k ≥ Base, and the chunk stores
	// k − Base. Other encodings leave both 0.
	Exp  int
	Base int64
	// Zone is the chunk's min/max; Zone.CodeMin / Zone.IntMin is the
	// frame-of-reference base of gdict / delta payloads.
	Zone ZoneMap
}

// PlanChunk decides the encoding of rows [lo, hi) of the dense vector v
// by modeled payload size; ties go to the earlier candidate (strict
// less-than), plain before all — same bytes, simpler decode. It is the
// one chooser: the rcfile writer lays down what it returns and the
// in-memory scan model charges its Bytes, so the bytes the cost models
// replay are the bytes a file would hold. The range must not be empty.
func PlanChunk(v *Vector, lo, hi int) ChunkPlan {
	rows := hi - lo
	p := ChunkPlan{Zone: ZoneOf(v, lo, hi)}
	switch {
	case v.IsDict():
		codes := v.Dict[lo:hi]
		p.Width = FORWidth(uint64(p.Zone.CodeMax - p.Zone.CodeMin))
		p.Runs = countRuns(codes)
		p.Enc, p.Bytes = encGDict, GDictChunkBytes(rows, p.Width)
		if rle := GDictRLEChunkBytes(p.Runs, p.Width); rle < p.Bytes {
			p.Enc, p.Bytes = encGDictRLE, rle
		}
		// Near-unique groups: the strings themselves are smaller.
		var plain int64
		for _, c := range codes {
			plain += 4 + int64(len(v.DictVals[c]))
		}
		if plain < p.Bytes {
			p.Enc, p.Bytes = encPlain, plain
		}
	case v.Kind == Str:
		for _, s := range v.Strs[lo:hi] {
			p.Bytes += 4 + int64(len(s))
		}
	default: // Int or Float: plain is 8 bytes a row
		p.Bytes = 8 * int64(rows)
		if v.Kind == Int {
			if w := FORWidth(uint64(p.Zone.IntMax) - uint64(p.Zone.IntMin)); w < 8 {
				p.Width = w
				if fb := DeltaChunkBytes(rows, w); fb < p.Bytes {
					p.Enc, p.Bytes = encDelta, fb
				}
			}
		} else if e, kmin, kmax, ok := decimalUnits(v.Floats[lo:hi]); ok {
			if w := FORWidth(uint64(kmax - kmin)); w < 8 {
				if db := DecimalChunkBytes(rows, w); db < p.Bytes {
					p.Enc, p.Bytes, p.Width, p.Exp, p.Base = encDecimal, db, w, e, kmin
				}
			}
		}
	}
	return p
}

// decimalUnits finds the smallest e in 0…MaxDecimalExp at which every x
// in xs is exactly float64(k)/10^e for k = round(x·10^e) with
// |x·10^e| ≤ 2^53, and returns e and the range of those ks. The check
// compares bits, so NaN, −0, ±Inf, subnormals and inexact sums such as
// 0.1+0.2 never qualify, and a decoder that computes float64(k)/10^e
// returns every written value bit for bit.
func decimalUnits(xs []float64) (e int, kmin, kmax int64, ok bool) {
scales:
	for e = 0; e <= MaxDecimalExp; e++ {
		p := math.Pow10(e)
		kmin, kmax = math.MaxInt64, math.MinInt64
		for _, x := range xs {
			s := x * p
			if !(math.Abs(s) <= 1<<53) { // also rejects NaN
				continue scales
			}
			k := int64(math.Round(s))
			if math.Float64bits(float64(k)/p) != math.Float64bits(x) {
				continue scales
			}
			kmin, kmax = min(kmin, k), max(kmax, k)
		}
		return e, kmin, kmax, true
	}
	return 0, 0, 0, false
}

// countRuns counts maximal runs of equal adjacent codes in a non-empty
// slice.
func countRuns(codes []uint32) int {
	runs := 1
	for i := 1; i < len(codes); i++ {
		if codes[i] != codes[i-1] {
			runs++
		}
	}
	return runs
}

// scanInfo computes once and caches the per-group zone maps and encoded
// chunk sizes of t.
func (t *Table) scanInfo() *tableScanInfo {
	t.scanOnce.Do(func() { t.scanCached = computeScanInfo(t) })
	return t.scanCached
}

func computeScanInfo(t *Table) *tableScanInfo {
	const groupRows = DefaultScanGroupRows
	d := t.Compacted() // zone maps want dense physical ranges
	n := d.NumRows()
	info := &tableScanInfo{}
	numGroups := (n + groupRows - 1) / groupRows
	// Per dict column, the file-global dictionary's bytes amortize
	// evenly across the groups (an RCFile stores one dictionary per
	// column in the footer).
	dictShare := make([]int64, len(d.Cols))
	for c, v := range d.Cols {
		if v.DictVals != nil && numGroups > 0 {
			dictShare[c] = DictEncodedBytes(v.DictVals, 0) / int64(numGroups)
		}
	}
	for lo := 0; lo < n; lo += groupRows {
		hi := lo + groupRows
		if hi > n {
			hi = n
		}
		rows := hi - lo
		zs := make([]ZoneMap, len(d.Cols))
		bs := make([]int64, len(d.Cols))
		for c, v := range d.Cols {
			p := PlanChunk(v, lo, hi)
			// A dict column's chunk also carries this group's share
			// of the file-global dictionary.
			zs[c], bs[c] = p.Zone, p.Bytes+dictShare[c]
		}
		info.rows = append(info.rows, rows)
		info.zones = append(info.zones, zs)
		info.bytes = append(info.bytes, bs)
	}
	return info
}

// TableSource serves an in-memory table. The scan returns the table
// whole — pruning cannot make an in-memory scan cheaper, and keeping the
// functional run identical keeps every operator cardinality (and so the
// engines' cost replays) stable — but the stats model what an
// RCFile-backed scan with the same row-group size would have
// decompressed vs skipped, so cost models can charge for pushdown.
type TableSource struct {
	T *Table
}

// NewTableSource wraps t; its stats model DefaultScanGroupRows-row
// groups.
func NewTableSource(t *Table) *TableSource { return &TableSource{T: t} }

// SrcName returns the table name.
func (s *TableSource) SrcName() string { return s.T.Name }

// SrcSchema returns the table schema.
func (s *TableSource) SrcSchema() Schema { return s.T.Schema }

// ScanTable implements Source.
func (s *TableSource) ScanTable(cols []string, pred ZonePredicate) (*Table, ScanStats) {
	info := s.T.scanInfo()
	want := make([]bool, len(s.T.Schema))
	if len(cols) == 0 {
		for i := range want {
			want[i] = true
		}
	} else {
		for _, c := range cols {
			want[s.T.Schema.Col(c)] = true
		}
	}
	var stats ScanStats
	for g := range info.rows {
		zs := info.zones[g]
		keep := pred.MayMatch(func(col string) (ZoneMap, bool) {
			for ci, c := range s.T.Schema {
				if c.Name == col {
					return zs[ci], true
				}
			}
			return ZoneMap{}, false
		})
		if !keep {
			stats.GroupsSkipped++
			for _, b := range info.bytes[g] {
				stats.BytesSkipped += b
			}
			continue
		}
		stats.GroupsRead++
		for ci, b := range info.bytes[g] {
			if want[ci] {
				stats.BytesRead += b
			} else {
				stats.BytesSkipped += b
			}
		}
	}
	return s.T, stats
}

// ScanSource logs and performs a pushdown-aware base-table scan: the
// source decides how little it can read given the column subset and the
// predicate, and the step records the skipped-bytes accounting for the
// engines' cost models.
//
// The returned table never aliases the source's header: a source may
// hand back a table shared by every concurrent scan (TableSource returns
// its backing table whole), so the base annotation goes on a fresh
// zero-copy wrapper instead of mutating the shared struct. That makes a
// scan safe to run from many query streams at once. The step's width is
// measured on the source's table, not the wrapper, so a shared table's
// memo serves every scan of it.
func (e *Exec) ScanSource(src Source, cols []string, pred ZonePredicate) *Table {
	scanned, stats := src.ScanTable(cols, pred)
	name := src.SrcName()
	t := scanned
	if t.Base != name {
		t = &Table{Name: t.Name, Schema: t.Schema, Cols: t.Cols, sels: t.sels, colSel: t.colSel, Base: name}
	}
	e.Log.add(Step{
		Kind: StepScan, Table: name,
		LeftRows: t.NumRows(), OutRows: t.NumRows(),
		LeftBase:      name,
		ScanBytesRead: stats.BytesRead, ScanBytesSkipped: stats.BytesSkipped,
		ScanGroupsRead: stats.GroupsRead, ScanGroupsSkipped: stats.GroupsSkipped,
		ScanBytesFromCache: stats.BytesFromCache,
		ScanCacheHits:      stats.CacheHits, ScanCacheMisses: stats.CacheMisses,
		ScanCorruptChunks: stats.CorruptChunks,
	}, scanned, nil, scanned)
	return t
}
