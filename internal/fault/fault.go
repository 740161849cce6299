// Package fault is the failpoint layer the durable HTAP pipeline
// writes through: a small append-oriented file-system abstraction with
// two real backends (an in-memory FS whose Crash method models a
// machine failure by tearing off unsynced bytes, and a directory FS
// over the OS) plus a deterministic, seed-driven fault Injector that
// wraps any FS and injects the classic storage failures at scheduled
// points — torn appends after a byte budget, fsync errors with sticky
// poison semantics (a failed fsync never later pretends the data made
// it), ENOSPC, and read-side bit flips.
//
// The delta log threads every durable byte through this interface, so
// the crash-matrix tests can kill the pipeline at any injected point,
// reopen over the surviving bytes, and check recovery — with production
// code paths, not test doubles.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// The injectable failure classes. Callers branch with errors.Is.
var (
	// ErrTorn is a write that persisted only a prefix (crash mid-write).
	ErrTorn = errors.New("fault: torn append")
	// ErrSync is a failed fsync. Sticky per file: once a sync fails, the
	// unsynced data must be considered lost — later syncs fail too.
	ErrSync = errors.New("fault: fsync failed")
	// ErrNoSpace is ENOSPC: the write (possibly partially applied) ran
	// out of disk.
	ErrNoSpace = errors.New("fault: no space left on device")
)

// File is an append-only log handle. Append extends the file; Sync
// makes everything appended so far durable; Truncate discards a torn
// tail during recovery.
type File interface {
	Append(p []byte) (int, error)
	Sync() error
	Truncate(n int64) error
	Size() int64
	ReadAll() ([]byte, error)
	Close() error
}

// FS is the flat-namespace file system the durable store lives in (its
// one delta log). Open creates the file when absent; names never
// contain path separators.
type FS interface {
	Open(name string) (File, error)
}

// MemFS is the in-memory backend. It tracks a per-file synced
// watermark so Crash can model a machine failure exactly: synced bytes
// survive, unsynced bytes survive only up to a seed-chosen tear point.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	mu     sync.Mutex
	data   []byte
	synced int
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memFile)} }

// Open returns a handle on name, creating it when absent.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		f = &memFile{}
		m.files[name] = f
	}
	return &memHandle{f: f}, nil
}

// ReadFile returns a copy of name's current contents. ReadFile and List
// are for tests that inspect what a store left behind.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	f := m.files[name]
	m.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("fault: %s: %w", name, os.ErrNotExist)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.data...), nil
}

// List returns the file names, sorted.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Crash models the machine dying: every file keeps its synced prefix
// plus a seed-chosen portion of its unsynced suffix (a torn tail).
// Deterministic for a given seed and file-system state; afterwards the
// surviving bytes read back as if the process had restarted.
func (m *MemFS) Crash(seed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	for _, name := range names {
		f := m.files[name]
		f.mu.Lock()
		if unsynced := len(f.data) - f.synced; unsynced > 0 {
			keep := f.synced + rng.Intn(unsynced+1)
			f.data = f.data[:keep]
		}
		f.synced = len(f.data)
		f.mu.Unlock()
	}
}

type memHandle struct{ f *memFile }

func (h *memHandle) Append(p []byte) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Truncate(n int64) error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if n < 0 || n > int64(len(h.f.data)) {
		return fmt.Errorf("fault: truncate to %d of %d bytes", n, len(h.f.data))
	}
	h.f.data = h.f.data[:n]
	if h.f.synced > int(n) {
		h.f.synced = int(n)
	}
	return nil
}

func (h *memHandle) Size() int64 {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return int64(len(h.f.data))
}

func (h *memHandle) ReadAll() ([]byte, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return append([]byte(nil), h.f.data...), nil
}

func (h *memHandle) Close() error { return nil }

// DirFS is the OS-directory backend: each FS name is one file in dir,
// appends go through an O_APPEND handle, Sync is fsync.
type DirFS struct{ dir string }

// NewDirFS creates dir if needed and returns an FS over it.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirFS{dir: dir}, nil
}

func (d *DirFS) path(name string) (string, error) {
	if name == "" || filepath.Base(name) != name {
		return "", fmt.Errorf("fault: bad file name %q", name)
	}
	return filepath.Join(d.dir, name), nil
}

// Open opens (or creates) name for appending.
func (d *DirFS) Open(name string) (File, error) {
	path, err := d.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f, path: path}, nil
}

type osFile struct {
	f    *os.File
	path string
}

func (o *osFile) Append(p []byte) (int, error) { return o.f.Write(p) }
func (o *osFile) Sync() error                  { return o.f.Sync() }
func (o *osFile) Truncate(n int64) error       { return o.f.Truncate(n) }

func (o *osFile) Size() int64 {
	info, err := o.f.Stat()
	if err != nil {
		return 0
	}
	return info.Size()
}

func (o *osFile) ReadAll() ([]byte, error) { return os.ReadFile(o.path) }
func (o *osFile) Close() error             { return o.f.Close() }

// Schedule is one deterministic fault plan. Zero values disable each
// fault; the seed drives every random choice (tear points, flipped
// bits), so a schedule replays identically.
type Schedule struct {
	Seed int64
	// TornAppendAfter tears the append that crosses this many
	// cumulative bytes written (all files): a prefix lands, the rest is
	// lost, and the file is poisoned — every later append fails with
	// ErrTorn (the process is "dying").
	TornAppendAfter int64
	// SyncFailAt fails the Nth Sync call (1-based) across all files and
	// poisons that file: later syncs on it fail too (a failed fsync
	// must never later pretend the data made it — fsyncgate semantics).
	SyncFailAt int64
	// DiskCap fails any append that would push total bytes (all files)
	// past the cap with ErrNoSpace, after applying the partial prefix
	// that fit.
	DiskCap int64
	// FlipReadAt flips one seed-chosen bit in the data returned by the
	// Nth File.ReadAll (1-based) — silent media corruption for the
	// checksum layers to catch.
	FlipReadAt int64
}

// Injector wraps an FS and injects the Schedule's faults at the
// scheduled points. All bookkeeping is under one mutex, so a schedule
// replays deterministically even under concurrent writers (the fault
// fires on whichever operation crosses the trigger first).
type Injector struct {
	inner FS
	sched Schedule

	mu           sync.Mutex
	rng          *rand.Rand
	written      int64 // bytes landed, all files
	syncs        int64
	reads        int64
	tornFiles    map[string]bool
	poisonedSync map[string]bool
	faults       faultLog
}

// faultEntry is one injected fault, stamped with the file it hit and a
// per-file sequence number taken under the injector's mutex. The stamp
// is what makes the rendered log deterministic: concurrent files race
// for the global append order, but each file's own fault sequence is
// fixed by the schedule, so sorting by (file, seq) yields the same log
// on every run regardless of goroutine interleaving.
type faultEntry struct {
	file string
	seq  int64
	msg  string
}

// faultLog is the mutex-ordered fault journal shared by the FS injector
// and the network injector. Callers must hold the owning mutex.
type faultLog struct {
	entries []faultEntry
	fileSeq map[string]int64
}

func (l *faultLog) note(file, msg string) {
	if l.fileSeq == nil {
		l.fileSeq = make(map[string]int64)
	}
	l.fileSeq[file]++
	l.entries = append(l.entries, faultEntry{file: file, seq: l.fileSeq[file], msg: msg})
}

// render returns the log sorted by (file, per-file seq) — a total order
// independent of which goroutine's operation appended first.
func (l *faultLog) render() []string {
	sorted := append([]faultEntry(nil), l.entries...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].file != sorted[j].file {
			return sorted[i].file < sorted[j].file
		}
		return sorted[i].seq < sorted[j].seq
	})
	out := make([]string, len(sorted))
	for i, e := range sorted {
		out[i] = e.msg
	}
	return out
}

// NewInjector wraps inner with the schedule.
func NewInjector(inner FS, sched Schedule) *Injector {
	return &Injector{
		inner:        inner,
		sched:        sched,
		rng:          rand.New(rand.NewSource(sched.Seed)),
		tornFiles:    make(map[string]bool),
		poisonedSync: make(map[string]bool),
	}
}

// Faults returns descriptions of the faults injected so far, in a
// deterministic order: entries sort by (file, per-file fault sequence),
// not by wall-clock append order, so crash-matrix assertions comparing
// fault logs across runs cannot flake under concurrent writers.
func (in *Injector) Faults() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults.render()
}

func (in *Injector) note(file, msg string) { in.faults.note(file, msg) }

// Open wraps the inner handle with the fault layer.
func (in *Injector) Open(name string) (File, error) {
	f, err := in.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, name: name, f: f}, nil
}

type injFile struct {
	in   *Injector
	name string
	f    File
}

func (g *injFile) Append(p []byte) (int, error) {
	in := g.in
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.tornFiles[g.name] {
		return 0, ErrTorn
	}
	n := int64(len(p))
	if budget := in.sched.TornAppendAfter; budget > 0 && in.written+n > budget {
		keep := max(budget-in.written, 0)
		if keep > 0 {
			g.f.Append(p[:keep])
		}
		in.written += keep
		in.tornFiles[g.name] = true
		in.note(g.name, fmt.Sprintf("torn append on %s: %d of %d bytes", g.name, keep, n))
		return int(keep), ErrTorn
	}
	if cap := in.sched.DiskCap; cap > 0 && in.written+n > cap {
		keep := max(cap-in.written, 0)
		if keep > 0 {
			g.f.Append(p[:keep])
		}
		in.written += keep
		in.tornFiles[g.name] = true // the disk stays full
		in.note(g.name, fmt.Sprintf("disk full on %s: %d of %d bytes", g.name, keep, n))
		return int(keep), ErrNoSpace
	}
	wrote, err := g.f.Append(p)
	in.written += int64(wrote)
	return wrote, err
}

func (g *injFile) Sync() error {
	in := g.in
	in.mu.Lock()
	if in.poisonedSync[g.name] {
		in.mu.Unlock()
		return ErrSync
	}
	in.syncs++
	if at := in.sched.SyncFailAt; at > 0 && in.syncs == at {
		in.poisonedSync[g.name] = true
		in.note(g.name, fmt.Sprintf("fsync %d failed on %s (sticky)", at, g.name))
		in.mu.Unlock()
		return ErrSync
	}
	in.mu.Unlock()
	return g.f.Sync()
}

func (g *injFile) Truncate(n int64) error { return g.f.Truncate(n) }
func (g *injFile) Size() int64            { return g.f.Size() }

// ReadAll reads through the inner handle, flipping one bit of the
// result when this is the schedule's FlipReadAt-th read.
func (g *injFile) ReadAll() ([]byte, error) {
	data, err := g.f.ReadAll()
	if err != nil {
		return nil, err
	}
	in := g.in
	in.mu.Lock()
	defer in.mu.Unlock()
	in.reads++
	if in.sched.FlipReadAt > 0 && in.reads == in.sched.FlipReadAt && len(data) > 0 {
		data = append([]byte(nil), data...) // never flip the inner file's bytes
		bit := in.rng.Intn(len(data) * 8)
		data[bit/8] ^= 1 << (bit % 8)
		in.note(g.name, fmt.Sprintf("flipped bit %d of %s", bit, g.name))
	}
	return data, nil
}

func (g *injFile) Close() error { return g.f.Close() }
