package shard

import (
	"fmt"

	"elephants/internal/cluster"
	"elephants/internal/docstore"
	"elephants/internal/sim"
	"elephants/internal/storage"
)

// ExtentSize is the effective unit MongoDB's memory-mapped storage
// faults in per cold document access. The paper measured MongoDB reading
// ~32 KB from disk per read request (vs SQL Server's 8 KB), wasting
// random-I/O bandwidth on Workload C.
const ExtentSize = 32 * 1024

// MongodConfig parameterizes a mongod process.
type MongodConfig struct {
	// ResidentExtents caps the number of data extents the OS page cache
	// keeps for this process. Scale with the dataset to preserve the
	// paper's 2.5× dataset-to-memory ratio.
	ResidentExtents int
	// CPUPerOp is core time per operation (BSON handling, dispatch).
	CPUPerOp sim.Duration
	// Journal enables write-ahead journaling with a 100 ms group flush
	// (MongoDB's journal semantics). The paper ran without it.
	Journal bool
	// FlushEvery is the background data-file flush interval (syncdelay;
	// 60 s in MongoDB). 0 disables.
	FlushEvery sim.Duration
}

// DefaultCPUPerOp approximates mongod per-operation CPU cost. It is
// deliberately a bit above the SQL engine's stored-proc cost: the paper
// consistently measured higher MongoDB latency even when disk-bound.
const DefaultCPUPerOp = 500 * sim.Microsecond

// JournalFlushInterval is MongoDB's journal group-commit window.
const JournalFlushInterval = 100 * sim.Millisecond

// Mongod is one MongoDB server process owning one shard's data. Sixteen
// of them run per node in the paper's Mongo-AS configuration.
type Mongod struct {
	s    *sim.Sim
	node *cluster.Node
	cfg  MongodConfig

	// globalLock is the per-process global lock: any number of readers,
	// but a writer blocks everything (MongoDB 1.8 semantics).
	globalLock *sim.RWLock

	docs       map[string]*docSlot
	extentOf   map[string]int // _id -> extent number
	index      *storage.BTree // _id index
	extentUsed int64          // bytes used in the current extent
	numExtents int
	resident   *storage.BufferPool // extent residency (32 KB units)
	idxPages   *storage.BufferPool // index page residency (8 KB units)

	journalEnd sim.Time
	dirty      map[int]bool // dirty extents awaiting background flush

	reads, writes, inserts, scans int64
	stopFlusher                   bool
}

type docSlot struct {
	data   []byte
	extent int
}

// NewMongod returns a mongod bound to node.
func NewMongod(s *sim.Sim, node *cluster.Node, cfg MongodConfig) *Mongod {
	if cfg.ResidentExtents <= 0 {
		cfg.ResidentExtents = int(node.Memory() / ExtentSize)
	}
	if cfg.CPUPerOp <= 0 {
		cfg.CPUPerOp = DefaultCPUPerOp
	}
	m := &Mongod{
		s:          s,
		node:       node,
		cfg:        cfg,
		globalLock: s.NewRWLock("mongod.global"),
		docs:       make(map[string]*docSlot),
		extentOf:   make(map[string]int),
		index:      storage.NewBTree(storage.DefaultBTreeOrder, nil),
		resident:   storage.NewBufferPool(cfg.ResidentExtents),
		idxPages:   storage.NewBufferPool(cfg.ResidentExtents), // index is small; rarely evicts
		dirty:      make(map[int]bool),
	}
	return m
}

// Node returns the node this process runs on.
func (m *Mongod) Node() *cluster.Node { return m.node }

// GlobalLock exposes the process-global lock for contention reporting
// (the paper reports 25-45 % of time spent in it under Workload A).
func (m *Mongod) GlobalLock() *sim.RWLock { return m.globalLock }

// StartBackground launches the periodic data-file flusher.
func (m *Mongod) StartBackground() {
	if m.cfg.FlushEvery <= 0 {
		return
	}
	m.s.Spawn("mongod-flusher", func(p *sim.Proc) {
		for {
			p.Sleep(m.cfg.FlushEvery)
			if m.stopFlusher {
				return
			}
			m.flush(p)
		}
	})
}

// StopBackground stops the flusher at its next wake-up.
func (m *Mongod) StopBackground() { m.stopFlusher = true }

// flush writes dirty extents back, charging chunked sequential-ish I/O.
func (m *Mongod) flush(p *sim.Proc) {
	n := len(m.dirty)
	if n == 0 {
		return
	}
	m.dirty = make(map[int]bool)
	const extentsPerIO = 16
	remaining := n
	for remaining > 0 {
		chunk := extentsPerIO
		if remaining < chunk {
			chunk = remaining
		}
		m.node.Disk(uint64(remaining)).WriteRand(p, int64(chunk)*ExtentSize)
		remaining -= chunk
	}
}

// touchExtent charges residency for extent access; cold extents fault in
// a full 32 KB unit.
func (m *Mongod) touchExtent(p *sim.Proc, extent int, dirty bool) {
	hit, _, _ := m.resident.Touch(storage.PageID(extent))
	if !hit {
		m.node.Disk(uint64(extent)).ReadRand(p, ExtentSize)
	}
	if dirty {
		m.resident.MarkDirty(storage.PageID(extent))
		m.dirty[extent] = true
	}
}

// touchIndex charges index page accesses (8 KB units).
func (m *Mongod) touchIndex(p *sim.Proc, path []storage.PageID) {
	for _, pg := range path {
		hit, _, _ := m.idxPages.Touch(pg)
		if !hit {
			m.node.Disk(pageSeed(pg)).ReadRand(p, storage.PageSize)
		}
	}
}

func pageSeed(pg storage.PageID) uint64 { return uint64(pg) * 2654435761 }

// journalCommit models the 100 ms-window journal group flush.
func (m *Mongod) journalCommit(p *sim.Proc) {
	if !m.cfg.Journal {
		return
	}
	now := p.Now()
	if m.journalEnd <= now {
		m.journalEnd = now + sim.Time(JournalFlushInterval)
	}
	p.Sleep(sim.Duration(m.journalEnd - now))
}

// Insert adds a document. The _id field must be a string.
func (m *Mongod) Insert(p *sim.Proc, doc *docstore.Doc) error {
	id, err := docID(doc)
	if err != nil {
		return err
	}
	m.node.Compute(p, m.cfg.CPUPerOp)
	m.globalLock.AcquireWrite(p)
	defer m.globalLock.ReleaseWrite()
	if _, exists := m.docs[id]; exists {
		return fmt.Errorf("shard: duplicate _id %q", id)
	}
	data := docstore.Marshal(doc)
	fresh := false
	if m.extentUsed+int64(len(data)) > ExtentSize {
		m.numExtents++
		m.extentUsed = 0
		fresh = true
	}
	m.extentUsed += int64(len(data))
	m.docs[id] = &docSlot{data: data, extent: m.numExtents}
	m.extentOf[id] = m.numExtents
	m.inserts++
	_, path := m.index.Insert(id, int64(m.numExtents))
	m.touchIndex(p, path)
	if fresh {
		// A newly allocated extent is written, not faulted in: mark it
		// resident and dirty without a disk read.
		m.resident.Touch(storage.PageID(m.numExtents))
		m.resident.MarkDirty(storage.PageID(m.numExtents))
		m.dirty[m.numExtents] = true
	} else {
		m.touchExtent(p, m.numExtents, true)
	}
	m.journalCommit(p)
	return nil
}

// Load adds a document without locking or timing (bulk load setup).
func (m *Mongod) Load(doc *docstore.Doc) error {
	id, err := docID(doc)
	if err != nil {
		return err
	}
	if _, exists := m.docs[id]; exists {
		return fmt.Errorf("shard: duplicate _id %q", id)
	}
	data := docstore.Marshal(doc)
	if m.extentUsed+int64(len(data)) > ExtentSize {
		m.numExtents++
		m.extentUsed = 0
	}
	m.extentUsed += int64(len(data))
	m.docs[id] = &docSlot{data: data, extent: m.numExtents}
	m.extentOf[id] = m.numExtents
	m.index.Insert(id, int64(m.numExtents))
	return nil
}

// FindByID returns the document with the given _id.
func (m *Mongod) FindByID(p *sim.Proc, id string) (*docstore.Doc, error) {
	m.node.Compute(p, m.cfg.CPUPerOp)
	m.globalLock.AcquireRead(p)
	defer m.globalLock.ReleaseRead()
	slot, ok := m.docs[id]
	if !ok {
		return nil, fmt.Errorf("shard: no document %q", id)
	}
	m.reads++
	_, _, path := m.index.Get(id)
	m.touchIndex(p, path)
	m.touchExtent(p, slot.extent, false)
	return docstore.Unmarshal(slot.data)
}

// UpdateByID replaces one field of the document with the given _id,
// holding the global write lock for the duration (MongoDB 1.8).
func (m *Mongod) UpdateByID(p *sim.Proc, id, field string, val docstore.Value) error {
	m.node.Compute(p, m.cfg.CPUPerOp)
	m.globalLock.AcquireWrite(p)
	defer m.globalLock.ReleaseWrite()
	slot, ok := m.docs[id]
	if !ok {
		return fmt.Errorf("shard: no document %q", id)
	}
	m.writes++
	doc, err := docstore.Unmarshal(slot.data)
	if err != nil {
		return err
	}
	doc.Set(field, val)
	slot.data = docstore.Marshal(doc)
	_, _, path := m.index.Get(id)
	m.touchIndex(p, path)
	m.touchExtent(p, slot.extent, true)
	m.journalCommit(p)
	return nil
}

// ScanRange returns up to limit documents with _id >= start in order.
func (m *Mongod) ScanRange(p *sim.Proc, start string, limit int) ([]*docstore.Doc, error) {
	m.node.Compute(p, m.cfg.CPUPerOp)
	m.globalLock.AcquireRead(p)
	defer m.globalLock.ReleaseRead()
	m.scans++
	entries, path := m.index.Scan(start, limit)
	m.touchIndex(p, path)
	out := make([]*docstore.Doc, 0, len(entries))
	lastExtent := -1
	for _, ent := range entries {
		ext := int(ent.Val)
		if ext != lastExtent {
			m.touchExtent(p, ext, false)
			lastExtent = ext
		}
		doc, err := docstore.Unmarshal(m.docs[ent.Key].data)
		if err != nil {
			return nil, err
		}
		out = append(out, doc)
	}
	return out, nil
}

// Count returns the number of stored documents.
func (m *Mongod) Count() int { return len(m.docs) }

// KeyAt returns the _id at the given offset from start in key order (a
// metadata operation used by the balancer to pick split points).
func (m *Mongod) KeyAt(start string, offset int) (string, bool) {
	entries, _ := m.index.Scan(start, offset+1)
	if len(entries) <= offset {
		return "", false
	}
	return entries[offset].Key, true
}

// ExportRange removes and returns every document with start <= _id < end
// (end == "" means unbounded). Used for chunk migration; the caller
// charges the network transfer.
func (m *Mongod) ExportRange(start, end string) []*docstore.Doc {
	var ids []string
	m.index.Ascend(func(k string, _ int64) bool {
		if k >= start && (end == "" || k < end) {
			ids = append(ids, k)
		}
		return end == "" || k < end
	})
	out := make([]*docstore.Doc, 0, len(ids))
	for _, id := range ids {
		doc, err := docstore.Unmarshal(m.docs[id].data)
		if err != nil {
			continue
		}
		out = append(out, doc)
		delete(m.docs, id)
		delete(m.extentOf, id)
		m.index.Delete(id)
	}
	return out
}

// ImportDocs bulk-adds migrated documents (functional move; the caller
// charges transfer and write cost).
func (m *Mongod) ImportDocs(docs []*docstore.Doc) {
	for _, d := range docs {
		m.Load(d)
	}
}

// DataBytes returns the approximate stored data size.
func (m *Mongod) DataBytes() int64 {
	var total int64
	for _, s := range m.docs {
		total += int64(len(s.data))
	}
	return total
}

// Stats reports cumulative operation counts.
func (m *Mongod) Stats() (reads, writes, inserts, scans int64) {
	return m.reads, m.writes, m.inserts, m.scans
}

// docID extracts the string _id field.
func docID(d *docstore.Doc) (string, error) {
	v, ok := d.Get("_id")
	if !ok {
		return "", fmt.Errorf("shard: document missing _id")
	}
	id, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("shard: _id must be a string, got %T", v)
	}
	return id, nil
}
