// Package htap is the update-shipping pipeline that joins the two
// halves of the paper: docstore-shaped OLTP writes append typed records
// to a group-committed delta log (internal/delta), and each held table
// keeps one append-only columnar replica — its base prefix followed by
// every published record — that the relal engine scans as a zero-copy
// prefix view with per-scan snapshot semantics: the Polynesia-style
// columnar replica fed by live write traffic, with no copy between the
// write and the scan.
//
//	writers ──AppendBSON──▶ delta.Log ──commit──▶ replica (append) ──▶ prefix view ──▶ scans
//	                           │                      └─ every ConvertRows records: close a converted range
//	                           └─(with FS)─▶ delta.log, the store's only file
//
// Commit order interleaves writers and tables arbitrarily, but each
// record carries its per-table position: the apply side holds
// out-of-order records in a reorder buffer and appends only the
// contiguous prefix to the replica, so a quiesced view reproduces the
// original table byte-for-byte — which is what lets the golden
// snapshot pin quiesced HTAP answers. Once a table's tail reaches
// Config.ConvertRows records, the commit that filled it closes it into
// a converted range: a segment whose scan model a scan memoizes, so no
// scan computes zone maps over the whole table.
//
// With a Config.FS the store is durable and crash-recoverable: the
// delta log appends through the fault layer (fsync policy per
// Config.Sync) into "delta.log", and Open replays the surviving log
// bytes through the same reorder buffer to rebuild the replica. The
// log is the only copy on disk: nothing else is written, so nothing
// else can be torn or corrupt. Records the log recovered but the
// driver re-appends are deduplicated by per-table position, so replay
// plus a resume-from-NextPos driver is idempotent.
package htap

import (
	"fmt"
	"sort"
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
	// ConvertRows is the tail size at which a commit closes a table's
	// tail into a converted range (0 = 4096).
	ConvertRows int
	// FS, when non-nil, makes the store durable: the delta log lives in
	// "delta.log", the only file the store writes, and Open replays
	// whatever it holds. Wrap the FS in a fault.Injector to test crash
	// schedules.
	FS fault.FS
	// Sync is the delta log's fsync policy (SyncGroup default). Used
	// with FS.
	Sync delta.SyncPolicy

	// RCFile, GroupRows and Cache select nothing: the store writes no
	// file but the delta log and scans decode no RCF7 chunk. They
	// remain so that the benchmark's configurations still compile.
	RCFile    bool
	GroupRows int
	Cache     *rcfile.ChunkCache
}

func (c Config) withDefaults() Config {
	if c.ConvertRows <= 0 {
		c.ConvertRows = 4096
	}
	return c
}

// tableView is one immutable snapshot of a table: t is the replica's
// first rows — the base prefix and every published record — with each
// slice capped at its length; segs are the in-memory scan models of the
// base prefix and of each converted range, in row order (a scan's stats
// sum their memoized zone maps); tail counts the published rows past
// the last converted range. Scans load the pointer once, so a scan
// always sees a consistent snapshot; commits swap the whole view under
// the table mutex.
type tableView struct {
	t    *relal.Table
	segs []*relal.TableSource
	tail int
	// tailSrc memoizes the tail segment's scan model.
	tailSrc atomic.Pointer[relal.TableSource]
}

// tableState is one held table: its write-side state, and the
// relal.Source its scans go through (source.go).
type tableState struct {
	name     string
	schema   relal.Schema
	baseRows int // replica row baseRows+p holds per-table position p

	// mu serializes replica appends, closes and view installs. Scans
	// never take it — they load view atomically.
	mu   sync.Mutex
	view atomic.Pointer[tableView]

	// cols is the replica: one append-only column per schema column,
	// starting as the base prefix of the DB's table (capped, so the
	// first append reallocates to capRows — the table's length at Open
	// — instead of writing into the DB table's held suffix). Appends
	// write only at indices past every view's length, so published
	// cells are never rewritten. A Str column stays coded against the
	// base dictionary until a value outside it arrives; it then turns
	// into raw strings once. Guarded by mu.
	cols    []*relal.Vector
	capRows int
	// segs are the scan models of the base prefix and of each converted
	// range, append-only like cols: a view holds a capped prefix of it.
	// converted is how many published records the converted ranges
	// cover. Guarded by mu.
	segs      []*relal.TableSource
	converted int

	// nextPos/pending are the reorder buffer: committed records arrive
	// in commit order (arbitrary across writers), are parked by
	// position, and only the contiguous prefix is appended to the
	// replica, so nextPos is also the published record count. Guarded
	// by mu.
	nextPos int64
	pending map[int64]delta.Record
}

// rows returns a zero-copy table over replica rows [lo, hi). Caller
// holds st.mu.
func (st *tableState) rows(lo, hi int) *relal.Table {
	return relal.NewTable(st.name, st.schema, window(st.cols, lo, hi)...)
}

// publish installs a view over the replica's published rows and its
// segments. Caller holds st.mu.
func (st *tableState) publish() {
	st.view.Store(&tableView{
		t:    st.rows(0, st.baseRows+int(st.nextPos)),
		segs: st.segs[:len(st.segs):len(st.segs)],
		tail: int(st.nextPos) - st.converted,
	})
}

// closeRange closes the tail's first rows records into a converted
// range. The range's scan model computes its zone maps on the first
// scan, so a close costs O(columns) — cheap enough for the commit hook,
// which runs under the delta log's mutex. Caller holds st.mu and
// publishes afterwards.
func (st *tableState) closeRange(rows int) {
	lo := st.baseRows + st.converted
	st.segs = append(st.segs, relal.NewTableSource(st.rows(lo, lo+rows)))
	st.converted += rows
}

// push appends one published record's cells to the replica. Caller
// holds st.mu.
func (st *tableState) push(cells []delta.Value) {
	for ci, v := range st.cols {
		c := cells[ci]
		switch v.Kind {
		case relal.Int:
			v.Ints = grow(v.Ints, st.capRows, c.Int)
		case relal.Float:
			v.Floats = grow(v.Floats, st.capRows, c.Float)
		default:
			if v.IsDict() {
				if k := sort.SearchStrings(v.DictVals, c.Str); k < len(v.DictVals) && v.DictVals[k] == c.Str {
					v.Dict = grow(v.Dict, st.capRows, uint32(k))
					continue
				}
				*v = relal.Vector{Kind: relal.Str, Strs: v.DecodeStrs()}
			}
			v.Strs = grow(v.Strs, st.capRows, c.Str)
		}
	}
}

// grow appends x to xs. A full slice shorter than capRows reallocates
// straight to capRows, so replaying the held rows grows it once.
func grow[T any](xs []T, capRows int, x T) []T {
	if len(xs) == cap(xs) && len(xs) < capRows {
		xs = append(make([]T, 0, capRows), xs...)
	}
	return append(xs, x)
}

// Store is the HTAP store over a tpch.DB: held tables answer scans
// through prefix views of their replicas and accept writes through the
// delta log.
type Store struct {
	cfg Config
	log *delta.Log

	tables map[string]*tableState
	held   []delta.Record // the held-back rows, as replayable write ops

	applied   atomic.Int64 // records published to views
	converted atomic.Int64 // records covered by converted ranges
	converts  atomic.Int64 // converted ranges closed

	// Recovery and dedup accounting; StatsNow reports each under the
	// Stats field of the same name.
	framesReplayed, truncatedBytes, duplicateRecords atomic.Int64
}

// New builds an in-memory (or fresh durable) store over db, holding
// back the last hold[name] rows of each named table: the remaining
// prefix — the DB table's own leading rows, not copied — starts the
// table's replica (installed as the DB's scan source), and the suffix
// is returned by HeldRecords for the write driver to replay through the
// delta path. Equivalent to Open — with a Config.FS holding a previous
// run's bytes, both recover it.
func New(db *tpch.DB, hold map[string]int, cfg Config) (*Store, error) {
	return Open(db, hold, cfg)
}

// Open builds the store and, when Config.FS is set, recovers whatever a
// previous incarnation left there: it replays the delta log's durable
// bytes through the reorder buffer (truncating any torn tail off the
// file) and so rebuilds the replicas and their converted ranges.
func Open(db *tpch.DB, hold map[string]int, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, tables: make(map[string]*tableState)}

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
		st := &tableState{
			name:     name,
			schema:   base.Schema,
			baseRows: n - k,
			cols:     window(relal.Head(base, n-k).Cols, 0, n-k),
			capRows:  n,
			pending:  make(map[int64]delta.Record),
		}
		st.segs = []*relal.TableSource{relal.NewTableSource(st.rows(0, n-k))}
		st.publish()
		s.tables[name] = st
		perTable[name] = recordsOf(base, n-k, n)
		db.SetSource(name, st)
	}
	s.held = interleave(names, perTable)

	if cfg.FS == nil {
		s.log = delta.NewLog(cfg.Window, s.onCommit)
		return s, nil
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover opens the durable delta log and replays it into the reorder
// buffers.
func (s *Store) recover() error {
	f, err := s.cfg.FS.Open("delta.log")
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
	// buffer, same dedup, same publish, same closes.
	s.applyBatch(recovered)
	return nil
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
// record into its table's reorder buffer, publishes the contiguous
// prefix to a fresh view, and closes full tails. Runs with the log
// mutex held — batches apply in commit order, exactly once.
func (s *Store) onCommit(batch []delta.Record, from, to int64) {
	s.applyBatch(batch)
}

// applyBatch runs committed (or recovered) records through the reorder
// buffers, appends contiguous prefixes to the replicas, closes each
// ConvertRows records of tail into a converted range, and publishes.
// Every record is disposed exactly once toward the applied counter —
// published, dropped as an already-published duplicate, or displaced
// from pending by a re-delivery of the same position — so `applied ==
// committed` still balances after a recovery followed by a driver
// re-appending from NextPos.
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
			st.push(r.Cells)
			delete(st.pending, st.nextPos)
			st.nextPos++
			published++
		}
		if published > 0 {
			closed := 0
			for int(st.nextPos)-st.converted >= s.cfg.ConvertRows {
				st.closeRange(s.cfg.ConvertRows)
				closed++
			}
			st.publish()
			s.converted.Add(int64(closed * s.cfg.ConvertRows))
			s.converts.Add(int64(closed))
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

// StartConverter does nothing: the commit that fills a tail closes
// it, so no background goroutine converts. StartConverter and
// StopConverter remain for callers written against that converter.
func (s *Store) StartConverter() {}

// StopConverter does nothing; see StartConverter.
func (s *Store) StopConverter() {}

// ConvertAll closes every non-empty tail into a converted range,
// regardless of size. After Quiesce + ConvertAll, every written row lies
// in a converted range. A close does no IO, so the error is always nil.
func (s *Store) ConvertAll() error {
	for _, st := range s.tables {
		st.mu.Lock()
		if rows := int(st.nextPos) - st.converted; rows > 0 {
			st.closeRange(rows)
			st.publish()
			s.converted.Add(int64(rows))
			s.converts.Add(1)
		}
		st.mu.Unlock()
	}
	return nil
}

// Close closes the delta log (quiesce, final fsync, file close). The
// store must not be used afterwards; reopen with Open over the same FS.
func (s *Store) Close() error {
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
	// AppliedRecords is how many of those scans can see.
	AppliedRecords int64
	// ConvertedRecords is how many converted ranges cover.
	ConvertedRecords int64
	// Converts is the number of converted ranges closed.
	Converts int64
	// Flushes is the number of physical delta-log flushes.
	Flushes int64
	// LagRecords is CommittedRecords - DuplicateRecords -
	// ConvertedRecords: the committed records, each position counted
	// once, that no converted range covers yet.
	LagRecords int64

	// Recovery accounting.

	// FramesReplayed is how many records Open recovered from the
	// durable log; TruncatedBytes is the torn tail it discarded.
	FramesReplayed int64
	TruncatedBytes int64
	// PartsRecovered is always 0: the store writes no part file. It
	// remains for the benchmark's htap.parts_recovered metric.
	PartsRecovered int64
	// DuplicateRecords counts committed records dropped by position
	// dedup — a driver re-appending rows the recovered log already
	// held.
	DuplicateRecords int64
}

// StatsNow samples the store. Safe from any goroutine.
func (s *Store) StatsNow() Stats {
	// Read the apply-side counters before the log's watermark, which
	// they never run ahead of, so the lag never reads negative.
	converted, dups := s.converted.Load(), s.duplicateRecords.Load()
	committed, flushes := s.log.Stats()
	return Stats{
		CommittedRecords: committed,
		AppliedRecords:   s.applied.Load(),
		ConvertedRecords: converted,
		Converts:         s.converts.Load(),
		Flushes:          flushes,
		LagRecords:       committed - dups - converted,
		FramesReplayed:   s.framesReplayed.Load(),
		TruncatedBytes:   s.truncatedBytes.Load(),
		DuplicateRecords: dups,
	}
}
