// Package sqleng implements the SQL-Server-like single-node record
// engine used on the YCSB side of the paper (each SQL-CS shard runs one
// instance). It provides stored-procedure-style point operations —
// ReadRecord, UpdateRecord, InsertRecord, ScanRecords — over a heap file
// with a B+tree primary-key index, an LRU buffer pool with 8 KB pages,
// row locks honouring READ COMMITTED or READ UNCOMMITTED, a group-commit
// WAL, and periodic checkpointing of dirty pages.
//
// The mechanisms the paper's YCSB analysis depends on are all here:
// 8 KB buffer-pool-miss reads (vs MongoDB's 32 KB), checkpoint-induced
// throughput dips, and read/write lock blocking under update-heavy load.
package sqleng

import (
	"fmt"
	"hash/fnv"

	"elephants/internal/cluster"
	"elephants/internal/sim"
	"elephants/internal/wal"
)

// IsolationLevel selects the engine's read locking behaviour.
type IsolationLevel int

const (
	// ReadCommitted takes shared row locks for reads (SQL Server default).
	ReadCommitted IsolationLevel = iota
	// ReadUncommitted reads without row locks (the paper's §3.4.3 ablation).
	ReadUncommitted
)

func (l IsolationLevel) String() string {
	if l == ReadUncommitted {
		return "READ UNCOMMITTED"
	}
	return "READ COMMITTED"
}

// Config parameterizes an engine instance.
type Config struct {
	// BufferPoolPages caps resident pages. The paper configures SQL
	// Server with a 24 GB buffer pool against ~80 GB of data per node;
	// scale this with the dataset to preserve the 2.5× ratio.
	BufferPoolPages int
	// Isolation selects read locking. Default ReadCommitted.
	Isolation IsolationLevel
	// CPUPerOp is the core time charged per point operation (parsing,
	// plan lookup, buffer search). Stored-procedure execution as in the
	// paper's modified YCSB driver.
	CPUPerOp sim.Duration
	// InsertTxnCPU is the extra per-insert transaction cost: the
	// paper's load issued each insert as a separate transaction with
	// no bulk path, which is why SQL-CS loaded slowest (146 min vs
	// Mongo-CS's 45).
	InsertTxnCPU sim.Duration
	// CheckpointEvery is the checkpoint interval (0 disables).
	CheckpointEvery sim.Duration
	// LogDisk, if nil, uses the node's last disk as the dedicated log
	// device (the paper stores SQL Server's log on a separate disk).
	LogDisk *cluster.Disk
}

// DefaultCPUPerOp approximates SQL Server stored-proc execution cost per
// YCSB operation on one (hyper-threaded) core.
const DefaultCPUPerOp = 400 * sim.Microsecond

// DefaultInsertTxnCPU is the extra cost of running an insert as its own
// ad-hoc transaction (statement parse, txn begin/commit bookkeeping).
const DefaultInsertTxnCPU = 1200 * sim.Microsecond

// Engine is one SQL-Server-like instance bound to a simulated node.
type Engine struct {
	s    *sim.Sim
	node *cluster.Node
	cfg  Config

	bp    *BufferPool
	heap  *HeapFile
	index *BTree
	locks map[string]*sim.RWLock
	log   *wal.Log
	ckpt  *wal.Checkpointer

	nextPage PageID

	reads, updates, inserts, scans int64
}

// New returns an engine on node. Call StartBackground to launch the
// checkpointer once the simulation has processes running.
func New(s *sim.Sim, node *cluster.Node, cfg Config) *Engine {
	if cfg.BufferPoolPages <= 0 {
		cfg.BufferPoolPages = int(node.Memory() * 3 / 4 / PageSize)
	}
	if cfg.CPUPerOp <= 0 {
		cfg.CPUPerOp = DefaultCPUPerOp
	}
	if cfg.InsertTxnCPU <= 0 {
		cfg.InsertTxnCPU = DefaultInsertTxnCPU
	}
	e := &Engine{
		s:     s,
		node:  node,
		cfg:   cfg,
		bp:    NewBufferPool(cfg.BufferPoolPages),
		locks: make(map[string]*sim.RWLock),
	}
	e.heap = NewHeapFile(e.allocPage)
	e.index = NewBTree(DefaultBTreeOrder, e.allocPage)
	logDisk := cfg.LogDisk
	if logDisk == nil {
		logDisk = node.Disks[len(node.Disks)-1]
	}
	e.log = wal.NewLog(s, logDisk, 0)
	if cfg.CheckpointEvery > 0 {
		e.ckpt = wal.NewCheckpointer(s, cfg.CheckpointEvery, e.checkpoint)
	}
	return e
}

func (e *Engine) allocPage() PageID {
	e.nextPage++
	return e.nextPage
}

// Node returns the simulated node this engine runs on.
func (e *Engine) Node() *cluster.Node { return e.node }

// BufferPool exposes the residency model (for tests and reporting).
func (e *Engine) BufferPool() *BufferPool { return e.bp }

// StartBackground launches the checkpointer, if configured.
func (e *Engine) StartBackground() {
	if e.ckpt != nil {
		e.ckpt.Start()
	}
}

// StopBackground stops the checkpointer, if configured.
func (e *Engine) StopBackground() {
	if e.ckpt != nil {
		e.ckpt.Stop()
	}
}

// rowLock returns the lazily created lock for key.
func (e *Engine) rowLock(key string) *sim.RWLock {
	l, ok := e.locks[key]
	if !ok {
		l = e.s.NewRWLock("row:" + key)
		e.locks[key] = l
	}
	return l
}

// touchPage charges one page access: buffer-pool hit is free, a miss
// reads 8 KB from the disk the page stripes to, and evicting a dirty
// page writes it back first.
func (e *Engine) touchPage(p *sim.Proc, id PageID, dirty bool) {
	hit, evicted, evictedDirty := e.bp.Touch(id)
	if !hit {
		if evictedDirty {
			e.node.Disk(pageHash(evicted)).WriteRand(p, PageSize)
		}
		e.node.Disk(pageHash(id)).ReadRand(p, PageSize)
	}
	if dirty {
		e.bp.MarkDirty(id)
	}
}

func pageHash(id PageID) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(id) >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// ReadRecord returns the record stored under key, or an error if absent.
func (e *Engine) ReadRecord(p *sim.Proc, key string) ([]byte, error) {
	e.reads++
	e.node.Compute(p, e.cfg.CPUPerOp)
	if e.cfg.Isolation == ReadCommitted {
		l := e.rowLock(key)
		l.AcquireRead(p)
		defer l.ReleaseRead()
	}
	rid, ok := e.lookup(p, key, false)
	if !ok {
		return nil, fmt.Errorf("sqleng: key %q not found", key)
	}
	e.touchPage(p, rid.Page, false)
	return e.heap.Read(rid)
}

// lookup walks the index for key, charging the page path.
func (e *Engine) lookup(p *sim.Proc, key string, dirtyLeaf bool) (RID, bool) {
	val, ok, path := e.index.Get(key)
	for i, pg := range path {
		e.touchPage(p, pg, dirtyLeaf && i == len(path)-1)
	}
	if !ok {
		return RID{}, false
	}
	return decodeRID(val), true
}

// UpdateRecord overwrites the record stored under key and commits via
// the WAL.
func (e *Engine) UpdateRecord(p *sim.Proc, key string, rec []byte) error {
	e.updates++
	e.node.Compute(p, e.cfg.CPUPerOp)
	l := e.rowLock(key)
	l.AcquireWrite(p)
	defer l.ReleaseWrite()
	rid, ok := e.lookup(p, key, false)
	if !ok {
		return fmt.Errorf("sqleng: key %q not found", key)
	}
	e.touchPage(p, rid.Page, true)
	if err := e.heap.Update(rid, rec); err != nil {
		return err
	}
	e.log.Append(p, int64(len(rec))+64)
	return nil
}

// InsertRecord adds a new record under key and commits via the WAL.
func (e *Engine) InsertRecord(p *sim.Proc, key string, rec []byte) error {
	e.inserts++
	e.node.Compute(p, e.cfg.CPUPerOp+e.cfg.InsertTxnCPU)
	l := e.rowLock(key)
	l.AcquireWrite(p)
	defer l.ReleaseWrite()
	rid := e.heap.Insert(rec)
	e.touchPage(p, rid.Page, true)
	_, path := e.index.Insert(key, encodeRID(rid))
	for _, pg := range path {
		e.touchPage(p, pg, true)
	}
	e.log.Append(p, int64(len(rec))+64)
	return nil
}

// LoadRecord inserts without locking, logging, or timing; used for bulk
// load setup outside the measured region. The caller charges any load
// cost it wants to model.
func (e *Engine) LoadRecord(key string, rec []byte) {
	rid := e.heap.Insert(rec)
	e.index.Insert(key, encodeRID(rid))
}

// ScanRecords returns up to limit records with keys >= start, in key
// order, charging index and heap page I/O. Under hash sharding every
// shard must be scanned by the client; that fan-out lives in the shard
// package.
func (e *Engine) ScanRecords(p *sim.Proc, start string, limit int) ([][]byte, error) {
	e.scans++
	e.node.Compute(p, e.cfg.CPUPerOp)
	entries, path := e.index.Scan(start, limit)
	for _, pg := range path {
		e.touchPage(p, pg, false)
	}
	out := make([][]byte, 0, len(entries))
	var lastPage PageID = -1
	for _, ent := range entries {
		rid := decodeRID(ent.Val)
		if rid.Page != lastPage {
			e.touchPage(p, rid.Page, false)
			lastPage = rid.Page
		}
		rec, err := e.heap.Read(rid)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// checkpoint flushes all dirty pages, charging chunked writes spread
// round-robin across the node's data disks so checkpoints contend with
// foreground reads (the Workload B dip).
func (e *Engine) checkpoint(p *sim.Proc) int {
	n := e.bp.FlushAll()
	if n == 0 {
		return 0
	}
	disks := e.node.Disks
	perDisk := (n + len(disks) - 1) / len(disks)
	const pagesPerIO = 64
	wg := e.s.NewWaitGroup()
	wg.Add(len(disks))
	for _, d := range disks {
		d := d
		e.s.Spawn("ckpt-writer", func(wp *sim.Proc) {
			defer wg.Done()
			remaining := perDisk
			for remaining > 0 {
				chunk := pagesPerIO
				if remaining < chunk {
					chunk = remaining
				}
				d.WriteRand(wp, int64(chunk)*PageSize)
				remaining -= chunk
			}
		})
	}
	wg.Wait(p)
	return n
}

// Stats reports cumulative operation counts.
func (e *Engine) Stats() (reads, updates, inserts, scans int64) {
	return e.reads, e.updates, e.inserts, e.scans
}

// Len reports the number of records stored.
func (e *Engine) Len() int { return e.heap.Len() }

func encodeRID(r RID) int64 {
	return int64(r.Page)<<16 | int64(r.Slot&0xffff)
}

func decodeRID(v int64) RID {
	return RID{Page: PageID(v >> 16), Slot: int(v & 0xffff)}
}
