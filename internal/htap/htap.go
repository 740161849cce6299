// Package htap is the update-shipping pipeline that joins the two
// halves of the paper: docstore-shaped OLTP writes append typed records
// to a group-committed delta log (internal/delta), a background
// converter drains committed deltas in batches and encodes them into
// column-group parts via the existing RCF writer, and the relal engine
// answers analytical queries over base + converted parts + the
// unconverted delta tail with per-scan snapshot semantics — the
// Polynesia-style columnar replica fed by live write traffic.
//
//	writers ──AppendBSON──▶ delta.Log ──commit──▶ tail view ──converter──▶ RCF part
//
// Commit order interleaves writers and tables arbitrarily, but each
// record carries its per-table position: the apply side holds
// out-of-order records in a reorder buffer and publishes only the
// contiguous prefix, so a quiesced base + parts + tail concatenation
// reproduces the original table byte-for-byte — which is what lets the
// golden snapshot pin quiesced HTAP answers.
//
// With a Config.FS the store is durable and crash-recoverable: the
// delta log appends through the fault layer (fsync policy per
// Config.Sync), converted parts persist as RCF6 files, and Open replays
// the surviving log bytes through the same reorder buffer to rebuild
// tail views, reconciling the contiguous verified prefix of part files
// against the replayed records. Records the log recovered but the
// driver re-appends are deduplicated by per-table position, so replay
// plus a resume-from-NextPos driver is idempotent. A part that fails
// CRC verification mid-scan is quarantined — the scan falls back to
// base + tail (the log covers every converted row) and the converter
// rebuilds the part; a corrupt part can cost a re-conversion, never a
// wrong answer.
package htap

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elephants/internal/delta"
	"elephants/internal/docstore"
	"elephants/internal/fault"
	"elephants/internal/rcfile"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// Config parameterizes the store.
type Config struct {
	// Window is the delta log's group-commit window (0 = the delta
	// default; negative = flush immediately, for deterministic tests).
	Window time.Duration
	// RCFile encodes converted parts (and the held tables' base parts)
	// as RCF6 files instead of in-memory sources.
	RCFile bool
	// GroupRows is the RCF6 row-group size (0 = 4096). Used with RCFile.
	GroupRows int
	// Cache, when non-nil, serves decoded chunks of the RCF6 parts.
	Cache *rcfile.ChunkCache
	// ConvertRows is the tail size at which the background converter
	// encodes a table's tail into a part (0 = 4096).
	ConvertRows int
	// ConvertEvery is the background converter's poll interval
	// (0 = 2ms).
	ConvertEvery time.Duration
	// FS, when non-nil, makes the store durable: the delta log lives in
	// "delta.log" and (with RCFile) converted parts persist as
	// "<table>-<start>-<rows>.part" files. Open replays whatever the FS
	// holds. Wrap the FS in a fault.Injector to test crash schedules.
	FS fault.FS
	// Sync is the delta log's fsync policy (SyncGroup default). Used
	// with FS.
	Sync delta.SyncPolicy
}

func (c Config) withDefaults() Config {
	if c.GroupRows <= 0 {
		c.GroupRows = 4096
	}
	if c.ConvertRows <= 0 {
		c.ConvertRows = 4096
	}
	if c.ConvertEvery <= 0 {
		c.ConvertEvery = 2 * time.Millisecond
	}
	return c
}

// part is one storage part of a table view: the base prefix (built
// in-process each open) or a converted slice of the delta record
// stream. Converted parts remember which record range they accelerate —
// the range [start, start+rows) of the table's published record list —
// so a part that fails verification can be dropped and its rows served
// from the records themselves.
type part struct {
	src   relal.Source
	rcf   *rcfile.Source // non-nil when src is an RCF6 source
	file  string         // persisted part file name ("" if memory-only)
	start int            // first record index covered (converted parts)
	rows  int
	base  bool // the base prefix: never quarantined (built in-process)
}

// tableView is one immutable snapshot of a table's storage: the base
// part, converted delta parts in record order, and the unconverted
// committed tail in per-table row order. Scans load the pointer once,
// so a scan always sees a consistent (parts, tail) pair; installs swap
// the whole view under the table mutex.
type tableView struct {
	parts []*part
	tail  []delta.Record
	// tailSrc memoizes the tail's table snapshot. Views are immutable,
	// so concurrent builders compute identical snapshots and the first
	// published pointer wins.
	tailSrc atomic.Pointer[relal.TableSource]
}

// tableState is one held table's write-side state.
type tableState struct {
	name   string
	schema relal.Schema
	base   *relal.Table // full in-memory table (dictionary + schema donor)

	// mu serializes view installs (commit applies and conversions).
	// Scans never take it — they load view atomically.
	mu   sync.Mutex
	view atomic.Pointer[tableView]

	// recs is every published record in per-table row order, append-only
	// — the authoritative in-memory copy of the delta stream. Converted
	// parts are accelerators over ranges of it (the delta log is never
	// truncated on conversion), so dropping a corrupt part never loses
	// rows: the view's tail re-extends to cover the dropped range.
	// Guarded by mu for writes; views hand out capped reslices, which
	// are safe to read concurrently because published elements are
	// never mutated.
	recs []delta.Record
	// converted is how many of recs are covered by converted parts.
	converted int

	// nextPos/pending are the reorder buffer: committed records arrive
	// in commit order (arbitrary across writers), are parked by
	// position, and only the contiguous prefix is published to the
	// tail. Guarded by mu.
	nextPos int64
	pending map[int64]delta.Record
}

// tailOf returns the capped reslice of recs past the converted
// watermark — the view tail. Caller holds st.mu.
func (st *tableState) tailOf() []delta.Record {
	return st.recs[st.converted:len(st.recs):len(st.recs)]
}

// Store is the HTAP store over a tpch.DB: held tables answer scans
// through base + delta views and accept writes through the delta log.
type Store struct {
	cfg Config
	log *delta.Log
	fs  fault.FS // nil for the in-memory store

	tables map[string]*tableState
	held   []delta.Record // the held-back rows, as replayable write ops

	applied   atomic.Int64 // records published to tail views
	converted atomic.Int64 // records encoded into parts
	converts  atomic.Int64 // conversion batches

	// Robustness accounting (recovery, retries, corruption); StatsNow
	// reports each under the Stats field of the same name.
	framesReplayed, truncatedBytes      atomic.Int64
	converterRetries, backoffMaxReached atomic.Int64
	corruptChunks, partsQuarantined     atomic.Int64
	partsRecovered, duplicateRecords    atomic.Int64

	convStop chan struct{}
	convDone chan struct{}
}

// New builds an in-memory (or fresh durable) store over db, holding
// back the last hold[name] rows of each named table: the remaining
// prefix becomes the table's base part (installed as the DB's scan
// source), and the suffix is returned by HeldRecords for the write
// driver to replay through the delta path. Equivalent to Open — with a
// Config.FS holding a previous run's bytes, both recover it.
func New(db *tpch.DB, hold map[string]int, cfg Config) (*Store, error) {
	return Open(db, hold, cfg)
}

// Open builds the store and, when Config.FS is set, recovers whatever a
// previous incarnation left there: it replays the delta log's durable
// bytes through the reorder buffer (truncating any torn tail off the
// file), rebuilds tail views, and re-adopts the contiguous verified
// prefix of converted part files — any part that is torn, unparseable,
// or out of range is quarantined and deleted, its rows served from the
// replayed records until the converter rebuilds it.
func Open(db *tpch.DB, hold map[string]int, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, fs: cfg.FS, tables: make(map[string]*tableState)}

	names := make([]string, 0, len(hold))
	for _, name := range tpch.TableNames {
		if hold[name] > 0 {
			names = append(names, name)
		}
	}
	perTable := make(map[string][]delta.Record, len(names))
	for _, name := range names {
		base := db.Table(name)
		k := hold[name]
		n := base.NumRows()
		if k >= n {
			return nil, fmt.Errorf("htap: hold %d of %d rows of %s", k, n, name)
		}
		prefix := relal.Head(base, n-k)
		baseSrc, baseRCF, err := s.buildSource(prefix)
		if err != nil {
			return nil, fmt.Errorf("htap: encode %s base: %w", name, err)
		}
		st := &tableState{
			name:    name,
			schema:  base.Schema,
			base:    base,
			pending: make(map[int64]delta.Record),
		}
		st.view.Store(&tableView{parts: []*part{{src: baseSrc, rcf: baseRCF, rows: n - k, base: true}}})
		s.tables[name] = st
		perTable[name] = recordsOf(base, n-k, n)
		db.SetSource(name, &htapSource{store: s, st: st, base: base})
	}
	s.held = interleave(names, perTable)

	if s.fs == nil {
		s.log = delta.NewLog(cfg.Window, s.onCommit)
		return s, nil
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover opens the durable delta log, replays it into the reorder
// buffers, and reconciles persisted part files against the replayed
// records.
func (s *Store) recover() error {
	f, err := s.fs.Open("delta.log")
	if err != nil {
		return fmt.Errorf("htap: open delta log: %w", err)
	}
	log, recovered, truncated, err := delta.OpenFile(f, delta.FileConfig{
		Window:   s.cfg.Window,
		Sync:     s.cfg.Sync,
		OnCommit: s.onCommit,
	})
	if err != nil {
		f.Close()
		return fmt.Errorf("htap: recover delta log: %w", err)
	}
	s.log = log
	s.framesReplayed.Add(int64(len(recovered)))
	s.truncatedBytes.Add(truncated)
	// Replay through the same apply path commits use — same reorder
	// buffer, same dedup, same publish.
	s.applyBatch(recovered)

	return s.recoverParts()
}

// recoverParts re-adopts persisted part files. Per table, candidate
// files sort by record range and the longest contiguous prefix that
// parses and stays within the replayed records is installed; everything
// else — torn files, ranges past what the log recovered, parts shadowed
// by a broken predecessor — is quarantined (deleted) and left for the
// converter to rebuild. In the non-RCFile storage mode parts are
// memory-only, so any *.part files on the FS are stale and removed.
func (s *Store) recoverParts() error {
	names, err := s.fs.List()
	if err != nil {
		return fmt.Errorf("htap: list parts: %w", err)
	}
	type cand struct {
		file        string
		start, rows int
	}
	byTable := make(map[string][]cand)
	for _, name := range names {
		table, start, rows, ok := parsePartName(name)
		if !ok {
			continue
		}
		if !s.cfg.RCFile || s.tables[table] == nil {
			s.fs.Remove(name)
			continue
		}
		byTable[table] = append(byTable[table], cand{file: name, start: start, rows: rows})
	}
	for table, cands := range byTable {
		st := s.tables[table]
		sort.Slice(cands, func(i, j int) bool { return cands[i].start < cands[j].start })
		st.mu.Lock()
		covered := 0
		var parts []*part
		parts = append(parts, st.view.Load().parts[0]) // base
		broken := false
		for _, c := range cands {
			if broken || c.start != covered || c.start+c.rows > len(st.recs) {
				s.fs.Remove(c.file)
				s.partsQuarantined.Add(1)
				broken = true // contiguity is gone; later parts can't install
				continue
			}
			data, err := s.fs.ReadFile(c.file)
			if err != nil {
				s.fs.Remove(c.file)
				s.partsQuarantined.Add(1)
				broken = true
				continue
			}
			src, err := rcfile.NewSourceFromBytes(data, st.schema, table)
			if err != nil {
				// Torn or corrupt footer — the log covers these rows.
				s.fs.Remove(c.file)
				s.partsQuarantined.Add(1)
				broken = true
				continue
			}
			src.SetCache(s.cfg.Cache)
			parts = append(parts, &part{src: src, rcf: src, file: c.file, start: c.start, rows: c.rows})
			covered = c.start + c.rows
			s.partsRecovered.Add(1)
			s.converted.Add(int64(c.rows))
			s.converts.Add(1)
		}
		st.converted = covered
		st.view.Store(&tableView{parts: parts, tail: st.tailOf()})
		st.mu.Unlock()
	}
	return nil
}

// partName formats a converted part's file name; parsePartName inverts
// it. Table names contain no "-", so the split is unambiguous.
func partName(table string, start, rows int) string {
	return fmt.Sprintf("%s-%d-%d.part", table, start, rows)
}

func parsePartName(name string) (table string, start, rows int, ok bool) {
	base, found := strings.CutSuffix(name, ".part")
	if !found {
		return "", 0, 0, false
	}
	fields := strings.Split(base, "-")
	if len(fields) != 3 {
		return "", 0, 0, false
	}
	start, err1 := strconv.Atoi(fields[1])
	rows, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil || start < 0 || rows <= 0 {
		return "", 0, 0, false
	}
	return fields[0], start, rows, true
}

// buildSource wraps t as a scan source per the store's storage mode.
// The second return is the RCF6 view of the same source (nil in the
// in-memory mode).
func (s *Store) buildSource(t *relal.Table) (relal.Source, *rcfile.Source, error) {
	if !s.cfg.RCFile {
		return relal.NewTableSource(t), nil, nil
	}
	src, err := rcfile.NewSource(t, s.cfg.GroupRows)
	if err != nil {
		return nil, nil, err
	}
	src.SetCache(s.cfg.Cache)
	return src, src, nil
}

// recordsOf extracts rows [lo, hi) of t as delta records, positions
// numbered from 0 at the hold boundary.
func recordsOf(t *relal.Table, lo, hi int) []delta.Record {
	recs := make([]delta.Record, 0, hi-lo)
	for i := lo; i < hi; i++ {
		cells := make([]delta.Value, len(t.Schema))
		for ci, v := range t.Cols {
			switch t.Schema[ci].Type {
			case relal.Int:
				cells[ci] = delta.IntVal(v.Ints[i])
			case relal.Float:
				cells[ci] = delta.FloatVal(v.Floats[i])
			default:
				cells[ci] = delta.StrVal(v.StrAt(int32(i)))
			}
		}
		recs = append(recs, delta.Record{Table: t.Name, Pos: int64(i - lo), Cells: cells})
	}
	return recs
}

// interleave merges the per-table record lists into one op stream,
// proportionally by progress, so a write run touches every held table
// throughout rather than draining them one after another.
func interleave(names []string, perTable map[string][]delta.Record) []delta.Record {
	total := 0
	for _, recs := range perTable {
		total += len(recs)
	}
	out := make([]delta.Record, 0, total)
	idx := make([]int, len(names))
	for len(out) < total {
		// Pick the table that is least far through its list.
		best, bestFrac := -1, 2.0
		for i, name := range names {
			n := len(perTable[name])
			if idx[i] >= n {
				continue
			}
			frac := float64(idx[i]) / float64(n)
			if frac < bestFrac {
				best, bestFrac = i, frac
			}
		}
		out = append(out, perTable[names[best]][idx[best]])
		idx[best]++
	}
	return out
}

// HeldRecords returns the held-back rows as an ordered op list for the
// write driver. Each record's Pos is its row position past the hold
// boundary of its table; replaying every op (in any commit
// interleaving) and quiescing reconstructs the original tables exactly.
func (s *Store) HeldRecords() []delta.Record { return s.held }

// Log exposes the delta log (stats, replay snapshots).
func (s *Store) Log() *delta.Log { return s.log }

// onCommit is the delta log's commit hook: it files each committed
// record into its table's reorder buffer and publishes the contiguous
// prefix to a fresh tail view. Runs with the log mutex held — batches
// apply in commit order, exactly once.
func (s *Store) onCommit(batch []delta.Record, from, to int64) {
	s.applyBatch(batch)
}

// applyBatch runs committed (or recovered) records through the reorder
// buffers and publishes contiguous prefixes. Every record is disposed
// exactly once toward the applied counter — published, dropped as an
// already-published duplicate, or displaced from pending by a
// re-delivery of the same position — so `applied == committed` still
// balances after a recovery followed by a driver re-appending from
// NextPos.
func (s *Store) applyBatch(batch []delta.Record) {
	for i := 0; i < len(batch); {
		name := batch[i].Table
		j := i + 1
		for j < len(batch) && batch[j].Table == name {
			j++
		}
		st := s.tables[name]
		if st == nil {
			panic("htap: commit for unknown table " + name)
		}
		st.mu.Lock()
		var dups int64
		for _, r := range batch[i:j] {
			if r.Pos < st.nextPos {
				dups++ // already published (recovery re-append)
				continue
			}
			if _, exists := st.pending[r.Pos]; exists {
				dups++ // displaces an identical parked record
			}
			st.pending[r.Pos] = r
		}
		published := int64(0)
		for {
			r, ok := st.pending[st.nextPos]
			if !ok {
				break
			}
			st.recs = append(st.recs, r)
			delete(st.pending, st.nextPos)
			st.nextPos++
			published++
		}
		if published > 0 {
			old := st.view.Load()
			st.view.Store(&tableView{parts: old.parts, tail: st.tailOf()})
		}
		s.applied.Add(published + dups)
		if dups > 0 {
			s.duplicateRecords.Add(dups)
		}
		st.mu.Unlock()
		i = j
	}
}

// NextPos returns the table's next unpublished per-table position — the
// point a write driver resumes from after recovery (records below it
// are already durable and published; re-appending them is harmless but
// wasted work).
func (s *Store) NextPos(table string) int64 {
	st := s.tables[table]
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nextPos
}

// AppendRecord validates the record against its table's schema and
// appends it to the delta log, blocking until committed. Returns the
// commit sequence number.
func (s *Store) AppendRecord(r delta.Record) (int64, error) {
	st := s.tables[r.Table]
	if st == nil {
		return 0, fmt.Errorf("htap: no held table %q", r.Table)
	}
	if len(r.Cells) != len(st.schema) {
		return 0, fmt.Errorf("htap: %s row has %d cells, schema has %d", r.Table, len(r.Cells), len(st.schema))
	}
	for i, c := range r.Cells {
		if want := kindOf(st.schema[i].Type); c.Kind != want {
			return 0, fmt.Errorf("htap: %s.%s cell kind %d, want %d", r.Table, st.schema[i].Name, c.Kind, want)
		}
	}
	return s.log.Append(r)
}

// kindOf maps a relal column type to its delta cell kind.
func kindOf(t relal.Type) delta.Kind {
	switch t {
	case relal.Int:
		return delta.Int
	case relal.Float:
		return delta.Float
	}
	return delta.Str
}

// DocOf renders a record as the docstore document the write wire format
// carries: one BSON field per column, in schema order.
func (s *Store) DocOf(r delta.Record) (*docstore.Doc, error) {
	st := s.tables[r.Table]
	if st == nil {
		return nil, fmt.Errorf("htap: no held table %q", r.Table)
	}
	if len(r.Cells) != len(st.schema) {
		return nil, fmt.Errorf("htap: %s row has %d cells, schema has %d", r.Table, len(r.Cells), len(st.schema))
	}
	doc := docstore.NewDoc()
	for i, col := range st.schema {
		switch col.Type {
		case relal.Int:
			doc.Set(col.Name, r.Cells[i].Int)
		case relal.Float:
			doc.Set(col.Name, r.Cells[i].Float)
		default:
			doc.Set(col.Name, r.Cells[i].Str)
		}
	}
	return doc, nil
}

// AppendDoc maps a docstore document onto the table's schema (fields
// looked up by column name, types checked) and appends the resulting
// record. pos is the row's per-table position.
func (s *Store) AppendDoc(table string, pos int64, doc *docstore.Doc) (int64, error) {
	st := s.tables[table]
	if st == nil {
		return 0, fmt.Errorf("htap: no held table %q", table)
	}
	cells := make([]delta.Value, len(st.schema))
	for i, col := range st.schema {
		v, ok := doc.Get(col.Name)
		if !ok {
			return 0, fmt.Errorf("htap: doc for %s missing field %q", table, col.Name)
		}
		switch col.Type {
		case relal.Int:
			x, ok := v.(int64)
			if !ok {
				return 0, fmt.Errorf("htap: %s.%s is %T, want int64", table, col.Name, v)
			}
			cells[i] = delta.IntVal(x)
		case relal.Float:
			x, ok := v.(float64)
			if !ok {
				return 0, fmt.Errorf("htap: %s.%s is %T, want float64", table, col.Name, v)
			}
			cells[i] = delta.FloatVal(x)
		default:
			x, ok := v.(string)
			if !ok {
				return 0, fmt.Errorf("htap: %s.%s is %T, want string", table, col.Name, v)
			}
			cells[i] = delta.StrVal(x)
		}
	}
	return s.log.Append(delta.Record{Table: table, Pos: pos, Cells: cells})
}

// AppendBSON is the wire-shaped write path: a BSON document (the
// docstore format) is unmarshalled and applied via AppendDoc — what a
// YCSB client talking the Mongo wire protocol would trigger.
func (s *Store) AppendBSON(table string, pos int64, data []byte) (int64, error) {
	doc, err := docstore.Unmarshal(data)
	if err != nil {
		return 0, err
	}
	return s.AppendDoc(table, pos, doc)
}

// StartConverter launches the background converter: every ConvertEvery
// it encodes any table whose tail has reached ConvertRows records into
// a new column-group part. A table whose conversion fails (a transient
// part-write error, say) backs off exponentially with seeded jitter —
// doubling from ConvertEvery up to 64× — so a struggling disk isn't
// hammered every tick, while healthy tables keep converting on
// schedule.
func (s *Store) StartConverter() {
	if s.convStop != nil {
		return
	}
	s.convStop = make(chan struct{})
	s.convDone = make(chan struct{})
	go func() {
		defer close(s.convDone)
		ticker := time.NewTicker(s.cfg.ConvertEvery)
		defer ticker.Stop()
		rng := rand.New(rand.NewSource(1))
		backoff := make(map[string]time.Duration) // current backoff per failing table
		wait := make(map[string]time.Duration)    // remaining cool-down per failing table
		saturated := make(map[string]bool)        // tables whose backoff hit the cap this episode
		for {
			select {
			case <-s.convStop:
				return
			case <-ticker.C:
				for _, name := range tpch.TableNames {
					st := s.tables[name]
					if st == nil {
						continue
					}
					if w := wait[name]; w > 0 {
						wait[name] = w - s.cfg.ConvertEvery
						continue
					}
					if err := s.convertTable(st, s.cfg.ConvertRows); err != nil {
						s.converterRetries.Add(1)
						b := backoff[name]
						if b == 0 {
							b = s.cfg.ConvertEvery
						}
						b *= 2
						if max := 64 * s.cfg.ConvertEvery; b >= max {
							b = max
							// The backoff is now pinned at its bound — count the
							// saturation once per failure episode so operators can
							// tell "retried a few times" from "stuck for a while".
							if !saturated[name] {
								saturated[name] = true
								s.backoffMaxReached.Add(1)
							}
						}
						backoff[name] = b
						wait[name] = b + time.Duration(rng.Int63n(int64(b/2)+1))
					} else {
						delete(backoff, name)
						delete(wait, name)
						delete(saturated, name)
					}
				}
			}
		}
	}()
}

// StopConverter halts the background converter and waits for it.
func (s *Store) StopConverter() {
	if s.convStop == nil {
		return
	}
	close(s.convStop)
	<-s.convDone
	s.convStop, s.convDone = nil, nil
}

// ConvertAll synchronously converts every non-empty tail, regardless of
// batch size, retrying each table a bounded number of times so a
// scheduled run of transient faults doesn't strand a tail. After
// Quiesce + ConvertAll, every written row lives in a column-group part.
func (s *Store) ConvertAll() error {
	for _, name := range tpch.TableNames {
		st := s.tables[name]
		if st == nil {
			continue
		}
		var err error
		for attempt := 0; attempt < 8; attempt++ {
			if err = s.convertTable(st, 1); err == nil {
				break
			}
			s.converterRetries.Add(1)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// convertTable encodes the record range [st.converted, len(st.recs))
// into a part when it holds at least minRows records. The encode runs
// outside st.mu (commits must not stall behind gzip); the install
// re-checks that the range is still the one snapshotted — a quarantine
// racing in between rolls the watermark back, in which case the built
// part is discarded and the next pass re-converts. The new view's tail
// drops the converted range.
func (s *Store) convertTable(st *tableState, minRows int) error {
	st.mu.Lock()
	start := st.converted
	recs := st.tailOf()
	if len(recs) < minRows {
		st.mu.Unlock()
		return nil
	}
	t := recordsTable(st, recs)
	st.mu.Unlock()

	src, rcf, err := s.buildSource(t)
	if err != nil {
		return fmt.Errorf("htap: convert %s: %w", st.name, err)
	}
	p := &part{src: src, rcf: rcf, start: start, rows: len(recs)}
	if s.fs != nil && rcf != nil {
		p.file = partName(st.name, start, len(recs))
		if err := fault.WriteFile(s.fs, p.file, rcf.Data()); err != nil {
			s.fs.Remove(p.file)
			return fmt.Errorf("htap: persist %s: %w", p.file, err)
		}
	}

	st.mu.Lock()
	if st.converted != start {
		// A quarantine (or competing convert) moved the watermark while
		// we encoded; this part no longer lines up. Drop it.
		st.mu.Unlock()
		if p.file != "" {
			s.fs.Remove(p.file)
		}
		return nil
	}
	old := st.view.Load()
	parts := make([]*part, 0, len(old.parts)+1)
	parts = append(append(parts, old.parts...), p)
	st.converted = start + len(recs)
	st.view.Store(&tableView{parts: parts, tail: st.tailOf()})
	st.mu.Unlock()
	s.converted.Add(int64(len(recs)))
	s.converts.Add(1)
	return nil
}

// quarantine drops bad (a part whose chunk failed CRC verification mid-
// scan) and every later part of the table: the converted watermark
// rolls back to the start of the bad range, the view's tail re-extends
// over the dropped rows straight from the published records, and the
// persisted files are deleted so recovery can't re-adopt them. The
// caller's scan then retries against the degraded view — base + intact
// parts + tail — which serves the same rows; the converter re-encodes
// the range on its next pass. No answer is ever produced from bytes
// that failed verification.
func (s *Store) quarantine(st *tableState, bad *part) {
	st.mu.Lock()
	old := st.view.Load()
	idx := -1
	for i, p := range old.parts {
		if p == bad {
			idx = i
			break
		}
	}
	if idx < 0 || bad.base {
		// Another scan already quarantined it (views are immutable, so
		// two scans can race to report the same part).
		st.mu.Unlock()
		return
	}
	dropped := old.parts[idx:]
	st.converted = bad.start
	st.view.Store(&tableView{parts: old.parts[:idx:idx], tail: st.tailOf()})
	var droppedRows int64
	for _, p := range dropped {
		droppedRows += int64(p.rows)
		if p.file != "" {
			s.fs.Remove(p.file)
		}
	}
	st.mu.Unlock()
	s.converted.Add(-droppedRows)
	s.partsQuarantined.Add(int64(len(dropped)))
}

// Close stops the converter and closes the delta log (quiesce, final
// fsync, file close). The store must not be used afterwards; reopen
// with Open over the same FS.
func (s *Store) Close() error {
	s.StopConverter()
	return s.log.Close()
}

// Quiesce waits for the delta log to drain, then verifies every
// committed record has been published (no position gaps left in any
// reorder buffer). Call with all writers stopped.
func (s *Store) Quiesce() error {
	s.log.Quiesce()
	for name, st := range s.tables {
		st.mu.Lock()
		pending := len(st.pending)
		st.mu.Unlock()
		if pending != 0 {
			return fmt.Errorf("htap: %s has %d unpublished records after quiesce (position gap)", name, pending)
		}
	}
	if a, c := s.applied.Load(), s.log.CommittedSeq(); a != c {
		return fmt.Errorf("htap: applied %d of %d committed records after quiesce", a, c)
	}
	return nil
}

// Stats is a point-in-time freshness and accounting snapshot.
type Stats struct {
	// CommittedRecords is the delta log's commit watermark.
	CommittedRecords int64
	// AppliedRecords is how many of those scans can see (tail views).
	AppliedRecords int64
	// ConvertedRecords is how many have been encoded into parts.
	ConvertedRecords int64
	// Converts is the number of conversion batches.
	Converts int64
	// Flushes is the number of physical delta-log flushes.
	Flushes int64
	// LagRecords is CommittedRecords - ConvertedRecords: the freshness
	// lag, in records, between the write watermark and the columnar
	// replica's converted state.
	LagRecords int64

	// Robustness accounting.

	// FramesReplayed is how many records Open recovered from the
	// durable log; TruncatedBytes is the torn tail it discarded.
	FramesReplayed int64
	TruncatedBytes int64
	// ConverterRetries counts conversion attempts that failed and were
	// retried (backoff in the background converter, bounded retry in
	// ConvertAll). BackoffMaxReached counts failure episodes whose
	// backoff saturated at the 64× ConvertEvery cap — the "converter is
	// stuck, not just unlucky" signal.
	ConverterRetries  int64
	BackoffMaxReached int64
	// CorruptChunks counts chunk CRC failures detected during scans;
	// PartsQuarantined counts parts dropped (at scan time or during
	// recovery reconciliation) and PartsRecovered counts part files
	// re-adopted by Open.
	CorruptChunks    int64
	PartsQuarantined int64
	PartsRecovered   int64
	// DuplicateRecords counts committed records dropped by position
	// dedup — a driver re-appending rows the recovered log already
	// held.
	DuplicateRecords int64
}

// StatsNow samples the store. Safe from any goroutine.
func (s *Store) StatsNow() Stats {
	committed, flushes := s.log.Stats()
	converted := s.converted.Load()
	return Stats{
		CommittedRecords:  committed,
		AppliedRecords:    s.applied.Load(),
		ConvertedRecords:  converted,
		Converts:          s.converts.Load(),
		Flushes:           flushes,
		LagRecords:        committed - converted,
		FramesReplayed:    s.framesReplayed.Load(),
		TruncatedBytes:    s.truncatedBytes.Load(),
		ConverterRetries:  s.converterRetries.Load(),
		BackoffMaxReached: s.backoffMaxReached.Load(),
		CorruptChunks:     s.corruptChunks.Load(),
		PartsQuarantined:  s.partsQuarantined.Load(),
		PartsRecovered:    s.partsRecovered.Load(),
		DuplicateRecords:  s.duplicateRecords.Load(),
	}
}
