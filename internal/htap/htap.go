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
//	                                                  └──converter──▶ RCF7 checkpoint (with FS)
//
// Commit order interleaves writers and tables arbitrarily, but each
// record carries its per-table position: the apply side holds
// out-of-order records in a reorder buffer and appends only the
// contiguous prefix to the replica, so a quiesced view reproduces the
// original table byte-for-byte — which is what lets the golden
// snapshot pin quiesced HTAP answers.
//
// With a Config.FS the store is durable and crash-recoverable: the
// delta log appends through the fault layer (fsync policy per
// Config.Sync), the converter checkpoints converted ranges as RCF7 part
// files (with Config.RCFile), and Open replays the surviving log bytes
// through the same reorder buffer to rebuild the replica, then
// re-adopts the contiguous prefix of part files that verify — footer
// and every chunk CRC. Records the log recovered but the driver
// re-appends are deduplicated by per-table position, so replay plus a
// resume-from-NextPos driver is idempotent. A part that fails
// verification is quarantined at Open and the converter rebuilds it;
// scans never read parts, so a corrupt part can cost a re-conversion,
// never a wrong answer.
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
	// RCFile, with an FS, checkpoints each converted range as an RCF7
	// part file that Open re-adopts. Scans serve the in-memory replica
	// in both modes and never read a part; without an FS nothing is
	// encoded.
	RCFile bool
	// GroupRows is the RCF7 row-group size of checkpoints (0 = 4096).
	GroupRows int
	// Cache is not read by htap: scans decode no part, so no chunk
	// enters it.
	Cache *rcfile.ChunkCache
	// ConvertRows is the tail size at which the background converter
	// converts a table's tail into a part (0 = 4096).
	ConvertRows int
	// ConvertEvery is the background converter's poll interval
	// (0 = 2ms).
	ConvertEvery time.Duration
	// FS, when non-nil, makes the store durable: the delta log lives in
	// "delta.log" and (with RCFile) converted ranges persist as
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

// tableView is one immutable snapshot of a table: t is the replica's
// first rows — the base prefix and every published record — with each
// slice capped at its length; segs are the in-memory scan models of the
// base prefix and of each converted range, in row order (a scan's stats
// sum their memoized zone maps); tail counts the published rows past
// the last converted range. Scans load the pointer once, so a scan
// always sees a consistent snapshot; installs swap the whole view under
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

	// mu serializes replica appends and view installs (commit applies
	// and conversions). Scans never take it — they load view atomically.
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
	// converted is how many published records converted parts cover.
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

// publish installs a view over the replica's published rows with the
// given segments. Caller holds st.mu.
func (st *tableState) publish(segs []*relal.TableSource) {
	st.view.Store(&tableView{
		t:    st.rows(0, st.baseRows+int(st.nextPos)),
		segs: segs,
		tail: int(st.nextPos) - st.converted,
	})
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
	fs  fault.FS // nil for the in-memory store

	tables map[string]*tableState
	held   []delta.Record // the held-back rows, as replayable write ops

	applied   atomic.Int64 // records published to views
	converted atomic.Int64 // records covered by converted parts
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
// file), rebuilds the replicas, and re-adopts the contiguous verified
// prefix of converted part files — any part that is torn, unparseable,
// fails a chunk CRC, or is out of range is quarantined and deleted, its
// rows left in the tail until the converter rebuilds it.
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
		st := &tableState{
			name:     name,
			schema:   base.Schema,
			baseRows: n - k,
			cols:     window(relal.Head(base, n-k).Cols, 0, n-k),
			capRows:  n,
			pending:  make(map[int64]delta.Record),
		}
		head := st.rows(0, n-k)
		st.view.Store(&tableView{t: head, segs: []*relal.TableSource{relal.NewTableSource(head)}})
		s.tables[name] = st
		perTable[name] = recordsOf(base, n-k, n)
		db.SetSource(name, st)
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
// verifies — footer and every chunk CRC, read without a cache — and
// stays within the replayed records is installed; everything else —
// torn or corrupt files, ranges past what the log recovered, parts
// shadowed by a broken predecessor — is quarantined (deleted) and left
// for the converter to rebuild. Without RCFile nothing checkpoints, so
// any *.part files on the FS are stale and removed.
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
		segs := st.view.Load().segs[:1:1] // base
		broken := false
		for _, c := range cands {
			if broken || c.start != covered || c.start+c.rows > int(st.nextPos) || !s.verifyPart(st, c.file) {
				s.fs.Remove(c.file)
				s.partsQuarantined.Add(1)
				broken = true // contiguity is gone; later parts can't install
				continue
			}
			lo := st.baseRows + c.start
			segs = append(segs, relal.NewTableSource(st.rows(lo, lo+c.rows)))
			covered = c.start + c.rows
			s.partsRecovered.Add(1)
			s.converted.Add(int64(c.rows))
			s.converts.Add(1)
		}
		st.converted = covered
		st.publish(segs)
		st.mu.Unlock()
	}
	return nil
}

// verifyPart reports whether a part file reads back whole: its footer
// parses and every chunk's CRC matches. Chunk CRC failures count
// toward CorruptChunks.
func (s *Store) verifyPart(st *tableState, file string) bool {
	data, err := s.fs.ReadFile(file)
	if err != nil {
		return false
	}
	_, stats, err := rcfile.ReadCols(data, st.schema, st.name, nil, nil)
	s.corruptChunks.Add(int64(stats.CorruptChunks))
	return err == nil
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
// prefix to a fresh view. Runs with the log mutex held — batches
// apply in commit order, exactly once.
func (s *Store) onCommit(batch []delta.Record, from, to int64) {
	s.applyBatch(batch)
}

// applyBatch runs committed (or recovered) records through the reorder
// buffers, appends contiguous prefixes to the replicas, and publishes
// them. Every record is disposed
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
			st.push(r.Cells)
			delete(st.pending, st.nextPos)
			st.nextPos++
			published++
		}
		if published > 0 {
			st.publish(st.view.Load().segs)
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
// it converts any table whose tail has reached ConvertRows records into
// a new part. A table whose conversion fails (a transient
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
// Quiesce + ConvertAll, every written row lies in a converted part.
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

// convertTable turns the tail — records [st.converted, st.nextPos) —
// into a converted range when it holds at least minRows records: the
// range gets its own scan-model segment, and with RCFile and an FS its
// rows are also checkpointed as an RCF7 part file. The encode runs
// outside st.mu (commits must not stall behind it); the install
// re-checks that no competing convert moved the watermark meanwhile, in
// which case the built range is discarded. The new view's tail drops
// the converted range.
func (s *Store) convertTable(st *tableState, minRows int) error {
	st.mu.Lock()
	start, rows := st.converted, int(st.nextPos)-st.converted
	if rows < minRows {
		st.mu.Unlock()
		return nil
	}
	t := st.rows(st.baseRows+start, st.baseRows+start+rows)
	st.mu.Unlock()

	file := ""
	if s.cfg.RCFile && s.fs != nil {
		data, err := rcfile.NewWriter(s.cfg.GroupRows).Write(t)
		if err != nil {
			return fmt.Errorf("htap: convert %s: %w", st.name, err)
		}
		file = partName(st.name, start, rows)
		if err := fault.WriteFile(s.fs, file, data); err != nil {
			s.fs.Remove(file)
			return fmt.Errorf("htap: persist %s: %w", file, err)
		}
	}

	st.mu.Lock()
	if st.converted != start {
		st.mu.Unlock()
		if file != "" {
			s.fs.Remove(file)
		}
		return nil
	}
	segs := st.view.Load().segs
	st.converted = start + rows
	st.publish(append(segs[:len(segs):len(segs)], relal.NewTableSource(t)))
	st.mu.Unlock()
	s.converted.Add(int64(rows))
	s.converts.Add(1)
	return nil
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
	// AppliedRecords is how many of those scans can see.
	AppliedRecords int64
	// ConvertedRecords is how many converted parts cover.
	ConvertedRecords int64
	// Converts is the number of conversion batches.
	Converts int64
	// Flushes is the number of physical delta-log flushes.
	Flushes int64
	// LagRecords is CommittedRecords - ConvertedRecords: the lag, in
	// records, between the write watermark and the converted ranges.
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
	// CorruptChunks counts chunk CRC failures Open found while
	// verifying part files; PartsQuarantined counts part files Open
	// dropped (torn, corrupt, out of range, or behind a dropped one)
	// and PartsRecovered counts part files it re-adopted.
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
