// Package delta is the host-time delta log of the HTAP pipeline: the
// OLTP write path appends typed records (one per document write) and
// blocks until they are committed; commits are group committed — every
// append staged within one flush window rides a single flush, the
// shape internal/wal models in virtual time. A commit hook hands each
// committed batch to the store layer (which publishes it to analytical
// scans), and the durable byte stream replays after a crash to exactly
// the committed prefix: records are length-framed and checksummed, so
// Replay stops at the first torn frame.
//
// The log can be file-backed (OpenFile): appends then go through the
// fault layer's File before the commit is acknowledged, with the
// group-commit window doubling as the fsync batch (SyncGroup), or an
// fsync per record (SyncAlways), or no fsync at all (SyncNone —
// fastest, loses acked records on crash). IO errors are sticky: one
// torn append or failed fsync poisons the log and every later Append
// fails fast, mirroring how a real engine must treat a write stream
// whose durable prefix is no longer known (fsyncgate semantics).
package delta

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"elephants/internal/fault"
)

// Kind is a delta cell type, mirroring relal's column types without
// importing the package (the log sits below the engine).
type Kind uint8

// Cell kinds.
const (
	Int Kind = iota
	Float
	Str
)

// Value is one typed cell. Exactly the field matching Kind is set;
// keeping the variants unboxed means a record never allocates per cell
// on the append path.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
}

// IntVal, FloatVal, and StrVal build cells.
func IntVal(x int64) Value     { return Value{Kind: Int, Int: x} }
func FloatVal(x float64) Value { return Value{Kind: Float, Float: x} }
func StrVal(s string) Value    { return Value{Kind: Str, Str: s} }

// Record is one logical write: a row destined for a named table. Pos is
// the row's position within its table's write stream, stamped by the
// producer; commit order interleaves tables and writers arbitrarily, so
// the apply side uses Pos to restore per-table row order (the property
// the golden snapshots pin).
type Record struct {
	Table string
	Pos   int64
	Cells []Value
}

// Encode appends the record's framed wire form to buf: a uint32 payload
// length, the payload, and a CRC32 of the payload. A torn tail (crash
// mid-write) is detected by either a short frame or a checksum
// mismatch, so replay recovers exactly the committed prefix.
func Encode(buf []byte, r Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = appendString(buf, r.Table)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Pos))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Cells)))
	for _, c := range r.Cells {
		buf = append(buf, byte(c.Kind))
		switch c.Kind {
		case Int:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Int))
		case Float:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Float))
		case Str:
			buf = appendString(buf, c.Str)
		default:
			panic(fmt.Sprintf("delta: unknown cell kind %d", c.Kind))
		}
	}
	payload := buf[start+4:]
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// decodeRecord parses one payload (the bytes between the length prefix
// and the checksum).
func decodeRecord(p []byte) (Record, error) {
	var r Record
	var ok bool
	if r.Table, p, ok = readString(p); !ok {
		return r, fmt.Errorf("delta: truncated table name")
	}
	if len(p) < 12 {
		return r, fmt.Errorf("delta: truncated record header")
	}
	r.Pos = int64(binary.LittleEndian.Uint64(p))
	n := int(binary.LittleEndian.Uint32(p[8:]))
	p = p[12:]
	r.Cells = make([]Value, 0, n)
	for i := 0; i < n; i++ {
		if len(p) < 1 {
			return r, fmt.Errorf("delta: truncated cell %d", i)
		}
		kind := Kind(p[0])
		p = p[1:]
		var v Value
		v.Kind = kind
		switch kind {
		case Int:
			if len(p) < 8 {
				return r, fmt.Errorf("delta: truncated int cell")
			}
			v.Int = int64(binary.LittleEndian.Uint64(p))
			p = p[8:]
		case Float:
			if len(p) < 8 {
				return r, fmt.Errorf("delta: truncated float cell")
			}
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		case Str:
			if v.Str, p, ok = readString(p); !ok {
				return r, fmt.Errorf("delta: truncated str cell")
			}
		default:
			return r, fmt.Errorf("delta: unknown cell kind %d", kind)
		}
		r.Cells = append(r.Cells, v)
	}
	if len(p) != 0 {
		return r, fmt.Errorf("delta: %d trailing payload bytes", len(p))
	}
	return r, nil
}

func readString(p []byte) (string, []byte, bool) {
	if len(p) < 4 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n < 0 || len(p)-4 < n {
		return "", nil, false
	}
	return string(p[4 : 4+n]), p[4+n:], true
}

// Replay decodes the longest valid record prefix of data — the crash
// recovery path. A frame that is short, fails its checksum, or does not
// parse ends the replay (everything after a torn write is garbage);
// valid records before it are returned along with the byte length of
// the consumed prefix.
func Replay(data []byte) ([]Record, int) {
	var recs []Record
	pos := 0
	for {
		rest := data[pos:]
		if len(rest) < 4 {
			return recs, pos
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n < 0 || len(rest) < 4+n+4 {
			return recs, pos
		}
		payload := rest[4 : 4+n]
		sum := binary.LittleEndian.Uint32(rest[4+n:])
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, pos
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return recs, pos
		}
		recs = append(recs, r)
		pos += 4 + n + 4
	}
}

// SyncPolicy says when a file-backed log fsyncs.
type SyncPolicy int

// The sync policies.
const (
	// SyncGroup fsyncs once per group-commit flush, before the commit is
	// acknowledged: acked ⇒ durable, at one fsync per window.
	SyncGroup SyncPolicy = iota
	// SyncAlways appends and fsyncs each record's frame at stage time —
	// strongest, one fsync per record.
	SyncAlways
	// SyncNone appends at flush but never fsyncs — fastest; a crash may
	// lose acked records (replay still recovers a valid prefix).
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	}
	return "group"
}

// generation is one open flush window. The leader closes done when the
// window's records are durable (or the flush failed — err is set before
// done closes), releasing every rider.
type generation struct {
	done chan struct{}
	err  error
}

// Log is the group-committed delta log. Appenders block until their
// record is committed; all records staged within one window share one
// flush. The zero value is not usable — construct with NewLog or
// OpenFile.
type Log struct {
	window   time.Duration
	onCommit func(batch []Record, fromSeq, toSeq int64)
	file     fault.File // nil for the in-memory log
	sync     SyncPolicy

	mu         sync.Mutex
	durable    []byte // committed wire bytes
	staged     []byte // wire bytes of the open window
	stagedRecs []Record
	gen        *generation
	appended   int64 // records staged, ever
	err        error // sticky IO poison: set once, every later Append fails

	committed atomic.Int64 // records committed (durable), ever
	flushes   atomic.Int64
}

// DefaultWindow is the default group-commit window. Small enough that
// write latency stays sub-millisecond, large enough that concurrent
// writers actually share flushes.
const DefaultWindow = 200 * time.Microsecond

// NewLog returns a delta log with the given flush window (0 means
// DefaultWindow; negative means flush immediately, which unit tests use
// for determinism). onCommit, when non-nil, is invoked once per flush
// with the committed batch and its (exclusive-from, inclusive-to]
// sequence range. It runs with the log's mutex held — commits are
// published in order, exactly once — so it must be fast and must not
// call back into the Log.
func NewLog(window time.Duration, onCommit func(batch []Record, fromSeq, toSeq int64)) *Log {
	if window == 0 {
		window = DefaultWindow
	}
	if window < 0 {
		window = 0
	}
	return &Log{window: window, onCommit: onCommit}
}

// Append stages the record and blocks until the flush carrying it
// completes. The first appender of a window is the leader: it waits out
// the window (batching every rider that arrives meanwhile), appends the
// staged bytes to the durable log (and, for a file-backed log, to the
// file, fsyncing per the sync policy), advances the committed
// watermark, and publishes the batch. Returns the record's commit
// sequence number (1-based).
//
// A non-nil error means the record is NOT committed: either the log was
// already poisoned by an earlier IO failure, or this window's flush hit
// one — in which case no record of the window is acknowledged and the
// log refuses further appends (the durable prefix on disk is whatever
// Replay recovers at next open).
func (l *Log) Append(r Record) (int64, error) {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	frameStart := len(l.staged)
	l.staged = Encode(l.staged, r)
	if l.file != nil && l.sync == SyncAlways {
		// Frame goes durable at stage time; the flush window then only
		// publishes. A failure rolls the stage back so the open window
		// commits exactly its durable records.
		frame := l.staged[frameStart:]
		if _, err := l.file.Append(frame); err != nil {
			l.staged = l.staged[:frameStart]
			l.err = err
			l.mu.Unlock()
			return 0, err
		}
		if err := l.file.Sync(); err != nil {
			l.staged = l.staged[:frameStart]
			l.err = err
			l.mu.Unlock()
			return 0, err
		}
	}
	l.stagedRecs = append(l.stagedRecs, r)
	l.appended++
	seq := l.appended
	if l.gen != nil {
		// Rider: the open window's leader will commit this record.
		g := l.gen
		l.mu.Unlock()
		<-g.done
		return seq, g.err
	}
	g := &generation{done: make(chan struct{})}
	l.gen = g
	l.mu.Unlock()

	if l.window > 0 {
		time.Sleep(l.window)
	}

	l.mu.Lock()
	if l.file != nil && l.sync != SyncAlways {
		// The group-commit window doubles as the fsync batch: one
		// append (+ one fsync under SyncGroup) covers every rider.
		ferr := func() error {
			if _, err := l.file.Append(l.staged); err != nil {
				return err
			}
			if l.sync == SyncGroup {
				return l.file.Sync()
			}
			return nil
		}()
		if ferr != nil {
			// Poison: nothing in this window is acknowledged and the
			// committed watermark stays put. Whole frames that landed
			// before the tear may replay at next open — recovering more
			// than acked is fine; losing acked bytes is not.
			l.err = ferr
			l.gen = nil
			g.err = ferr
			l.mu.Unlock()
			close(g.done)
			return 0, ferr
		}
	}
	batch := l.stagedRecs
	from := l.committed.Load()
	l.durable = append(l.durable, l.staged...)
	l.staged = nil
	l.stagedRecs = nil
	l.gen = nil
	to := from + int64(len(batch))
	l.committed.Store(to)
	l.flushes.Add(1)
	if l.onCommit != nil {
		l.onCommit(batch, from, to)
	}
	l.mu.Unlock()
	close(g.done)
	return seq, nil
}

// CommittedSeq returns the number of committed records. Safe from any
// goroutine.
func (l *Log) CommittedSeq() int64 { return l.committed.Load() }

// Stats reports committed records and physical flushes.
func (l *Log) Stats() (appends, flushes int64) { return l.committed.Load(), l.flushes.Load() }

// Data returns a copy of the durable byte stream — what would survive a
// crash. Replay(Data()) yields exactly the committed records in commit
// order.
func (l *Log) Data() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]byte, len(l.durable))
	copy(out, l.durable)
	return out
}

// Quiesce blocks until no flush window is open. With all writers
// stopped, the log is fully committed afterwards.
func (l *Log) Quiesce() {
	for {
		l.mu.Lock()
		g := l.gen
		l.mu.Unlock()
		if g == nil {
			return
		}
		<-g.done
	}
}

// Err returns the sticky IO error, if any. A non-nil Err means the log
// stopped accepting appends at some earlier point; the durable prefix
// is whatever Replay recovers at next open.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// FileConfig configures a file-backed log.
type FileConfig struct {
	// Window is the group-commit window: 0 means DefaultWindow,
	// negative means flush immediately (deterministic tests).
	Window time.Duration
	// Sync is the fsync policy (default SyncGroup).
	Sync SyncPolicy
	// OnCommit, when non-nil, receives each committed batch — same
	// contract as NewLog. It is NOT invoked for records recovered by
	// OpenFile; the caller applies those itself.
	OnCommit func(batch []Record, fromSeq, toSeq int64)
}

// OpenFile opens a log over f, replaying whatever durable bytes
// survive. A torn tail (crash mid-append) is truncated off the file so
// later appends extend a clean committed prefix. Returns the log, the
// recovered records in commit order (the caller re-applies them — the
// commit hook is not invoked for recovery), and the number of torn-tail
// bytes discarded.
func OpenFile(f fault.File, cfg FileConfig) (*Log, []Record, int64, error) {
	data, err := f.ReadAll()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("delta: read log: %w", err)
	}
	recs, n := Replay(data)
	truncated := int64(len(data) - n)
	if truncated > 0 {
		if err := f.Truncate(int64(n)); err != nil {
			return nil, nil, 0, fmt.Errorf("delta: truncate torn tail: %w", err)
		}
	}
	l := NewLog(cfg.Window, cfg.OnCommit)
	l.file = f
	l.sync = cfg.Sync
	l.durable = data[:n:n]
	l.appended = int64(len(recs))
	l.committed.Store(int64(len(recs)))
	return l, recs, truncated, nil
}

// Close quiesces the log, fsyncs the file (unless the log is poisoned —
// a failed fsync must not be retried as if it could succeed), and
// closes it. Safe on an in-memory log (no-op beyond the quiesce).
func (l *Log) Close() error {
	l.Quiesce()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	var first error
	if l.err == nil && l.sync != SyncNone {
		if err := l.file.Sync(); err != nil {
			first = err
			l.err = err
		}
	}
	if err := l.file.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
