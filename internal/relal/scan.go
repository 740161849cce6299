// Pushdown-aware scanning: base tables are served by a Source that
// accepts a column subset and a sargable predicate. Storage formats
// (rcfile) keep per-row-group min/max zone maps and skip decompressing
// groups that cannot satisfy the predicate; the in-memory TableSource
// models the same decision over virtual row groups so cost models see
// the skipped-bytes ratio even when the data never left memory.
//
// Pruning is conservative: a condition only rules a group out when the
// group's [min, max] interval cannot intersect the condition's bounds,
// so a scan through any Source followed by the query's own Filter
// produces exactly the rows a full scan would.
package relal

import (
	"math"
	"sync/atomic"
)

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

// ZoneCond is one sargable range condition on a base-table column.
// Bounds are inclusive; representing a strict predicate (< or >) with
// its inclusive closure is safe — pruning only ever keeps extra groups,
// never drops matching ones.
type ZoneCond struct {
	Col          string
	Kind         Type
	HasLo, HasHi bool
	IntLo, IntHi int64
	FloLo, FloHi float64
	StrLo, StrHi string
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

// FloatAtMost matches col <= hi.
func FloatAtMost(col string, hi float64) ZoneCond {
	return ZoneCond{Col: col, Kind: Float, HasHi: true, FloHi: hi}
}

// StrBetween matches lo <= col <= hi (ISO date strings compare as
// dates, so date ranges push down as string ranges).
func StrBetween(col, lo, hi string) ZoneCond {
	return ZoneCond{Col: col, Kind: Str, HasLo: true, HasHi: true, StrLo: lo, StrHi: hi}
}

// StrAtLeast matches col >= lo.
func StrAtLeast(col, lo string) ZoneCond {
	return ZoneCond{Col: col, Kind: Str, HasLo: true, StrLo: lo}
}

// StrAtMost matches col <= hi.
func StrAtMost(col, hi string) ZoneCond {
	return ZoneCond{Col: col, Kind: Str, HasHi: true, StrHi: hi}
}

// StrEq matches col == v.
func StrEq(col, v string) ZoneCond { return StrBetween(col, v, v) }

// ZonePredicate is a conjunction of sargable conditions pushed into a
// scan. nil means no pushdown.
type ZonePredicate []ZoneCond

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

// SkippedFrac returns the fraction of total bytes the scan skipped.
func (s ScanStats) SkippedFrac() float64 {
	tot := s.BytesRead + s.BytesSkipped
	if tot == 0 {
		return 0
	}
	return float64(s.BytesSkipped) / float64(tot)
}

// CacheHitRatio returns CacheHits/(CacheHits+CacheMisses), or 0 before
// any cached lookup (including the no-cache configuration).
func (s ScanStats) CacheHitRatio() float64 {
	tot := s.CacheHits + s.CacheMisses
	if tot == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(tot)
}

// Add accumulates other into s. Plain field addition — for accumulation
// across goroutines (streams sharing one Source) use ScanCounter.
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

// ScanCounter accumulates ScanStats atomically. Sources embed one so
// their lifetime byte accounting stays exact when many query streams
// scan through the same Source concurrently; per-query accounting still
// comes from the Step log, which is private to each Exec.
type ScanCounter struct {
	bytesRead, bytesSkipped   atomic.Int64
	bytesFromCache            atomic.Int64
	groupsRead, groupsSkipped atomic.Int64
	cacheHits, cacheMisses    atomic.Int64
	corruptChunks             atomic.Int64
}

// Observe folds one scan's stats into the counter.
func (c *ScanCounter) Observe(s ScanStats) {
	c.bytesRead.Add(s.BytesRead)
	c.bytesSkipped.Add(s.BytesSkipped)
	c.bytesFromCache.Add(s.BytesFromCache)
	c.groupsRead.Add(int64(s.GroupsRead))
	c.groupsSkipped.Add(int64(s.GroupsSkipped))
	c.cacheHits.Add(int64(s.CacheHits))
	c.cacheMisses.Add(int64(s.CacheMisses))
	c.corruptChunks.Add(int64(s.CorruptChunks))
}

// Total returns the accumulated stats. Each field is read atomically; a
// snapshot taken while scans are in flight is a consistent set of sums
// as of some interleaving, which is all a throughput report needs.
func (c *ScanCounter) Total() ScanStats {
	return ScanStats{
		BytesRead:      c.bytesRead.Load(),
		BytesSkipped:   c.bytesSkipped.Load(),
		BytesFromCache: c.bytesFromCache.Load(),
		GroupsRead:     int(c.groupsRead.Load()),
		GroupsSkipped:  int(c.groupsSkipped.Load()),
		CacheHits:      int(c.cacheHits.Load()),
		CacheMisses:    int(c.cacheMisses.Load()),
		CorruptChunks:  int(c.corruptChunks.Load()),
	}
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
	// column) with row groups the predicate rules out pruned, plus the
	// scan's byte accounting. The returned table must be safe to wrap
	// in zero-copy views.
	ScanTable(cols []string, pred ZonePredicate) (*Table, ScanStats)
}

// DefaultScanGroupRows is the virtual row-group size TableSource uses
// for its zone maps; it matches rcfile's on-disk default so the two
// backends make the same group-pruning decisions. The byte accounting
// still differs in weighting: TableSource reports uncompressed encoded
// chunk bytes while rcfile reports per-chunk gzip-compressed bytes, so
// the skipped fraction is a model of the on-disk ratio, not a
// reproduction of it.
const DefaultScanGroupRows = 16 * 1024

// tableScanInfo is the cached per-group scan metadata of an in-memory
// table.
type tableScanInfo struct {
	groupRows int
	rows      []int       // per group: row count
	zones     [][]ZoneMap // per group, per column
	bytes     [][]int64   // per group, per column: encoded chunk bytes
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

// RLEChunkBytes is the numeric RLE payload: run count + (8-byte value,
// 4-byte length) per run.
func RLEChunkBytes(runs int) int64 { return 4 + int64(runs)*12 }

// DeltaChunkBytes is the int frame-of-reference payload: width byte +
// 8-byte base + packed deltas.
func DeltaChunkBytes(rows, width int) int64 { return 9 + int64(rows)*int64(width) }

// GDictChunkBytes is the global-dict code payload: width byte + 4-byte
// code base + packed frame-of-reference codes.
func GDictChunkBytes(rows, width int) int64 { return 5 + int64(rows)*int64(width) }

// GDictRLEChunkBytes is the run-length global-dict payload: width byte
// + code base + run count + (packed code, 4-byte length) per run.
func GDictRLEChunkBytes(runs, width int) int64 { return 9 + int64(runs)*int64(width+4) }

// Chunk encodings, numbered as the RCFile footer's enc byte.
const (
	encPlain    = byte(0) // length-prefixed strings / fixed 8-byte numerics
	encGDict    = byte(1) // FOR-packed global codes (dict Str)
	encGDictRLE = byte(2) // run-length encoded global codes (dict Str)
	encRLE      = byte(3) // run-length encoded values (Int/Float)
	encDelta    = byte(4) // FOR-packed values (Int)
)

// ChunkPlan is the storage decision for one column chunk: which RCF
// encoding lays rows [lo, hi) of a vector down smallest, and the numbers
// that decided it, which are also what the chosen layout and the footer
// store.
type ChunkPlan struct {
	// Enc is the RCFile enc byte: 0 plain, 1 gdict, 2 gdict+rle, 3 rle,
	// 4 delta.
	Enc byte
	// Bytes is Enc's modeled payload size before gzip.
	Bytes int64
	// Width is the packed cell width of gdict, gdict+rle and delta
	// payloads: the FORWidth of the chunk's code or value span.
	Width int
	// Runs counts maximal runs of equal adjacent cells — Int values,
	// Float bit patterns, dict codes; raw Str chunks are never run
	// encoded and report 0.
	Runs int
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
			p.Runs = countRuns(v.Ints[lo:hi])
		} else {
			// By bit pattern, as the rle layout stores them: -0 must
			// not join a run of +0, and equal NaNs may.
			p.Runs = 1
			for i := lo + 1; i < hi; i++ {
				if math.Float64bits(v.Floats[i]) != math.Float64bits(v.Floats[i-1]) {
					p.Runs++
				}
			}
		}
		if rle := RLEChunkBytes(p.Runs); rle < p.Bytes {
			p.Enc, p.Bytes = encRLE, rle
		}
	}
	return p
}

// countRuns counts maximal runs of equal adjacent values in a non-empty
// slice.
func countRuns[T comparable](xs []T) int {
	runs := 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[i-1] {
			runs++
		}
	}
	return runs
}

// scanInfo computes (and for the default group size, caches) the
// per-group zone maps and encoded chunk sizes of t.
func (t *Table) scanInfo(groupRows int) *tableScanInfo {
	if groupRows <= 0 {
		groupRows = DefaultScanGroupRows
	}
	if groupRows == DefaultScanGroupRows {
		t.scanOnce.Do(func() { t.scanCached = computeScanInfo(t, groupRows) })
		return t.scanCached
	}
	return computeScanInfo(t, groupRows)
}

func computeScanInfo(t *Table, groupRows int) *tableScanInfo {
	d := t.Compacted() // zone maps want dense physical ranges
	n := d.NumRows()
	info := &tableScanInfo{groupRows: groupRows}
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
	// GroupRows is the virtual row-group size (0 = default).
	GroupRows int

	counter ScanCounter
}

// TotalStats returns the stats accumulated across every scan served by
// this source, from any goroutine.
func (s *TableSource) TotalStats() ScanStats { return s.counter.Total() }

// NewTableSource wraps t with the default virtual row-group size.
func NewTableSource(t *Table) *TableSource { return &TableSource{T: t} }

// SrcName returns the table name.
func (s *TableSource) SrcName() string { return s.T.Name }

// SrcSchema returns the table schema.
func (s *TableSource) SrcSchema() Schema { return s.T.Schema }

// ScanTable implements Source.
func (s *TableSource) ScanTable(cols []string, pred ZonePredicate) (*Table, ScanStats) {
	info := s.T.scanInfo(s.GroupRows)
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
	s.counter.Observe(stats)
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
// scan safe to run from many query streams at once.
func (e *Exec) ScanSource(src Source, cols []string, pred ZonePredicate) *Table {
	t, stats := src.ScanTable(cols, pred)
	name := src.SrcName()
	width := t.AvgRowBytes()
	if t.Base != name {
		// The wrapper aliases the source table's vectors, so the source
		// must carry the shared flag too or a later AppendRow to it
		// would mutate the aliased vectors in place. markShared is
		// write-free on already-shared tables (every base table), so
		// concurrent streams only ever read the flag here.
		markShared(t)
		w := &Table{Name: t.Name, Schema: t.Schema, Cols: t.Cols, sel: t.sel, Base: name}
		w.avgBytes.Store(int64(width))
		w.shared.Store(true)
		t = w
	}
	e.Log.Add(Step{
		Kind: StepScan, Table: name,
		LeftRows: t.NumRows(), LeftWidth: width,
		OutRows: t.NumRows(), OutWidth: width,
		LeftBase:      name,
		ScanBytesRead: stats.BytesRead, ScanBytesSkipped: stats.BytesSkipped,
		ScanGroupsRead: stats.GroupsRead, ScanGroupsSkipped: stats.GroupsSkipped,
		ScanBytesFromCache: stats.BytesFromCache,
		ScanCacheHits:      stats.CacheHits, ScanCacheMisses: stats.CacheMisses,
		ScanCorruptChunks: stats.CorruptChunks,
	})
	return t
}
