package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elephants/internal/fault"
	"elephants/internal/relal"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Times are nanoseconds since the tracer
// started. Parent 0 means a root; QueryID is shared by every span one
// query caused (0 outside a query).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	QueryID int    `json:"query_id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run takes the same code path with no spans.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, 0 from a nil tracer.
func (t *tracer) begin(parent int64, queryID int, name string) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, QueryID: queryID, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// selfNanos returns, for each span in order, its duration minus the part
// of its interval that its children cover. Children that run in parallel
// overlap, so the covered part is the union of their intervals, not the
// sum; a child that outlives its parent is clipped to the parent.
func selfNanos(spans []span) []int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanSums totals span time by name prefix over spans that belong to a
// query: durations of "<layer>.scan:<table>" spans per layer, and the
// self time of "query" spans.
type spanSums struct {
	scanByLayer map[string]int64
	querySelf   int64
}

func sumSpans(spans []span) spanSums {
	sums := spanSums{scanByLayer: make(map[string]int64)}
	self := selfNanos(spans)
	for i, s := range spans {
		if layer, _, ok := strings.Cut(s.Name, ".scan:"); ok {
			sums.scanByLayer[layer] += s.End - s.Start
		} else if s.Name == "query" {
			sums.querySelf += self[i]
		}
	}
	return sums
}

// streamTrace is one query stream's position in the span tree. The
// stream sets query and parent before each query of a traced round and
// clears parent after it; the stream's timing sources read them, always
// from the stream's own goroutine, because plans scan synchronously.
type streamTrace struct {
	tr     *tracer
	parent int64
	query  int
}

// timedSource wraps a relal.Source and records one span per ScanTable
// call under its stream's current query. Layer names the module that
// serves the scan.
type timedSource struct {
	relal.Source
	layer string
	st    *streamTrace
}

func (s *timedSource) ScanTable(cols []string, pred relal.ZonePredicate) (*relal.Table, relal.ScanStats) {
	if s.st.parent == 0 {
		return s.Source.ScanTable(cols, pred)
	}
	id := s.st.tr.begin(s.st.parent, s.st.query, s.layer+".scan:"+s.SrcName())
	defer s.st.tr.end(id)
	return s.Source.ScanTable(cols, pred)
}

// fsCounters is what the counting file system saw: every append and
// fsync the store issued, with each fsync's duration.
type fsCounters struct {
	appends, syncs, bytes atomic.Int64

	mu        sync.Mutex
	syncNanos []int64

	// tr and writeSpan place fs spans in the trace: an append or fsync of
	// the delta log while a write is in flight is that write's child.
	tr        *tracer
	writeSpan atomic.Int64
}

// countFS wraps a fault.FS so that every file it opens counts its
// appends and fsyncs.
type countFS struct {
	fault.FS
	c *fsCounters
}

func (f countFS) Open(name string) (fault.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, c: f.c, isLog: name == "delta.log"}, nil
}

type countFile struct {
	fault.File
	c     *fsCounters
	isLog bool
}

func (f *countFile) parent() int64 {
	if f.isLog {
		return f.c.writeSpan.Load()
	}
	return 0
}

func (f *countFile) Append(p []byte) (int, error) {
	id := f.c.tr.begin(f.parent(), 0, "fs.append")
	n, err := f.File.Append(p)
	f.c.tr.end(id)
	f.c.appends.Add(1)
	f.c.bytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	id := f.c.tr.begin(f.parent(), 0, "fs.sync")
	t0 := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(t0))
	f.c.tr.end(id)
	f.c.syncs.Add(1)
	f.c.mu.Lock()
	f.c.syncNanos = append(f.c.syncNanos, d)
	f.c.mu.Unlock()
	return err
}

// fsSnapshot is a point-in-time copy of the counters, so a phase can
// report only what happened during it.
type fsSnapshot struct {
	appends, syncs, bytes int64
	nsyncs                int
}

func (c *fsCounters) snapshot() fsSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsSnapshot{c.appends.Load(), c.syncs.Load(), c.bytes.Load(), len(c.syncNanos)}
}

// syncMillisSince returns the fsync durations recorded after snap.
func (c *fsCounters) syncMillisSince(snap fsSnapshot) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, 0, len(c.syncNanos)-snap.nsyncs)
	for _, ns := range c.syncNanos[snap.nsyncs:] {
		out = append(out, float64(ns)/1e6)
	}
	return out
}
