package dist

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"elephants/internal/delta"
	"elephants/internal/fault"
	"elephants/internal/htap"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// PartitionedTables are the tables hash-partitioned by orderkey; only
// the shards scan them, inside cut prefixes. Everything else is small
// enough to replicate onto the coordinator and every shard (the paper's
// PDW does the same with its replicated dimension tables).
var PartitionedTables = map[string]string{
	"orders":   "o_orderkey",
	"lineitem": "l_orderkey",
}

// ShardConfig describes one shard process. It round-trips through JSON
// so a child process can be handed its identity in an env var.
type ShardConfig struct {
	// Shards and Index place this process in the hash ring.
	Shards int
	Index  int
	// SF, Seed, Random64 pin the generated dataset; every shard (and
	// the coordinator) must agree on them.
	SF       float64
	Seed     int64
	Random64 bool
	// Port pins the listen port (0 = ephemeral). A restarting shard is
	// given its old port so retrying coordinators reconnect unchanged.
	Port int
	// DataDir, when set, holds the shard's durable delta log
	// (delta.log, its only file); a restart replays it via htap.Open.
	// Empty runs the store in memory and persists nothing.
	DataDir string
	// Hold is the per-table count of trailing partition rows routed
	// through the delta log instead of the base part (nil = defaults),
	// so every shard exercises the log/replay path it recovers with.
	Hold map[string]int
	// Sync is the delta-log fsync policy ("" = always: each acked row
	// is durable, so a kill at any instant loses nothing acked).
	Sync string
}

// shardOf is the orderkey router: FNV-1a over the key's 8 little-endian
// bytes, modulo the shard count (at least 1). It is a pure function of
// the key, so every process computes the same placement.
func shardOf(key int64, shards int) int {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(key >> (8 * i)))
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	return int(h % uint64(max(shards, 1)))
}

// BuildShardDB generates the full dataset and replaces the partitioned
// tables with this shard's hash partition, each row tagged with its
// global position (tpch.PosCol), so the coordinator can reassemble
// the shards' answers in exactly the original row order. Every process
// computes identical placement, so the shards form an exact disjoint
// cover of the original rows.
func BuildShardDB(cfg ShardConfig) *tpch.DB {
	db := tpch.Generate(tpch.GenConfig{SF: cfg.SF, Seed: cfg.Seed, Random64: cfg.Random64})
	e := &relal.Exec{Parallelism: 1}
	for name, keyCol := range PartitionedTables {
		full := db.Table(name)
		withPos := e.ExtendInt(full, tpch.PosCol, func(i int) int64 { return int64(i) })
		key := withPos.IntCol(keyCol)
		part := e.Filter(withPos, func(i int) bool {
			return shardOf(key.Get(i), cfg.Shards) == cfg.Index
		}).Compacted()
		part.Name = name
		switch name {
		case "orders":
			db.Orders = part
		case "lineitem":
			db.Lineitem = part
		}
	}
	return db
}

// defaultHold routes a few hundred trailing rows of each partition
// through the delta log, clamped so small partitions stay legal.
func defaultHold(db *tpch.DB) map[string]int {
	hold := make(map[string]int)
	for name, want := range map[string]int{"orders": 150, "lineitem": 300} {
		if n := db.Table(name).NumRows(); n/2 < want {
			want = n / 2
		}
		if want > 0 {
			hold[name] = want
		}
	}
	return hold
}

// Shard is one running shard server (in-process or the body of a shard
// OS process).
type Shard struct {
	cfg   ShardConfig
	db    *tpch.DB
	store *htap.Store
	ln    net.Listener

	mu     sync.Mutex
	closed bool
	// conns are the live sessions, which Close closes; accepted counts
	// every connection served.
	conns    map[net.Conn]struct{}
	accepted int
	wg       sync.WaitGroup
}

// StartShard builds the shard's partition, opens (and if needed
// recovers) its htap store, replays/append-fills the held rows, and
// starts serving. The returned shard is fully caught up: every query
// it answers sees the complete partition.
func StartShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Shards < 1 || cfg.Index < 0 || cfg.Index >= cfg.Shards {
		return nil, fmt.Errorf("dist: bad shard placement %d/%d", cfg.Index, cfg.Shards)
	}
	db := BuildShardDB(cfg)
	hold := cfg.Hold
	if hold == nil {
		hold = defaultHold(db)
	}
	pol, err := delta.ParseSyncPolicy(syncOrDefault(cfg.Sync))
	if err != nil {
		return nil, err
	}
	// Scans serve the store's in-memory replica of the partition; with
	// a DataDir, the delta log that a restart replays is durable.
	hcfg := htap.Config{Window: -1, Sync: pol}
	if cfg.DataDir != "" {
		fs, err := fault.NewDirFS(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		hcfg.FS = fs
	}
	store, err := htap.Open(db, hold, hcfg)
	if err != nil {
		return nil, fmt.Errorf("dist: open shard %d store: %w", cfg.Index, err)
	}
	// Re-append the held rows. AppendRecord skips those the recovered
	// log already covers, so on a fresh boot all of them are logged,
	// after a crash only the unacked tail.
	for _, r := range store.HeldRecords() {
		if _, err := store.AppendRecord(r); err != nil {
			store.Close()
			return nil, fmt.Errorf("dist: shard %d append %s@%d: %w", cfg.Index, r.Table, r.Pos, err)
		}
	}
	if err := store.Quiesce(); err != nil {
		store.Close()
		return nil, err
	}
	if err := store.ConvertAll(); err != nil {
		store.Close()
		return nil, err
	}
	// A restarting shard re-binds its pinned port; give the kernel a
	// moment to release the dead incarnation's socket.
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", cfg.Port))
		if err == nil {
			break
		}
		if cfg.Port == 0 || attempt >= 40 {
			store.Close()
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
	s := &Shard{cfg: cfg, db: db, store: store, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func syncOrDefault(s string) string {
	if s == "" {
		return "always"
	}
	return s
}

// Addr returns the shard's listen address.
func (s *Shard) Addr() string { return s.ln.Addr().String() }

// Port returns the shard's listen port.
func (s *Shard) Port() int { return s.ln.Addr().(*net.TCPAddr).Port }

// Close stops serving, closes every session (idle ones included, so it
// never waits for a coordinator to hang up) and closes the store.
func (s *Shard) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	return s.store.Close()
}

func (s *Shard) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handleConn(conn)
		}()
	}
}

// track registers a new session, or reports false once the shard is
// closing.
func (s *Shard) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.accepted++
	return true
}

func (s *Shard) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// handleConn serves one coordinator session: framed requests, one at a
// time, until the peer goes away, sends garbage or the shard closes.
// Both directions are buffered and each response is flushed whole; the
// request and response-header gob streams live as long as the
// connection, as the coordinator's do, and each response echoes its
// request's sequence number. Any read error — EOF, torn frame, bad
// checksum, deadline — just drops the connection; the coordinator's
// retry layer owns recovery, the shard never trusts a damaged frame.
func (s *Shard) handleConn(conn net.Conn) {
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	in, out := newGobIn(), newGobOut()
	for {
		// A kept session waits for its next request under a generous
		// baseline deadline, so a dead peer can't pin the goroutine; the
		// request's own budget tightens it below.
		conn.SetDeadline(time.Now().Add(time.Minute))
		payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		var req Request
		if err := in.decode(payload, &req); err != nil {
			return
		}
		if req.DeadlineMS > 0 {
			conn.SetDeadline(time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond))
		}
		resp, t := s.handle(req)
		resp.Seq = req.Seq
		if err := writeResponse(w, out, resp, t); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// handle dispatches one request; a table-bearing response comes back
// with the table still to be encoded behind it. Shard-side panics
// (corrupt source, schema misuse) become typed wire errors instead of
// killing the process — a shard must degrade to "this request failed",
// not die.
func (s *Shard) handle(req Request) (resp Response, t *relal.Table) {
	defer func() {
		if r := recover(); r != nil {
			resp, t = Response{Shard: s.cfg.Index, Err: fmt.Sprintf("shard %d: %v", s.cfg.Index, r)}, nil
		}
	}()
	switch req.Op {
	case OpCut:
		return s.handleCut(req)
	case OpHealth:
		next := make(map[string]int64)
		for name := range PartitionedTables {
			next[name] = s.store.NextPos(name)
		}
		return Response{Shard: s.cfg.Index, NextPos: next}, nil
	}
	return Response{Shard: s.cfg.Index, Err: fmt.Sprintf("unknown op %d", req.Op)}, nil
}

// handleCut runs a registered cut's prefix over the partition and ships
// the columns the suffix reads, then the prefix's spine positions.
func (s *Shard) handleCut(req Request) (Response, *relal.Table) {
	cut, ok := tpch.Cuts[req.Query]
	if !ok {
		return Response{Shard: s.cfg.Index, Err: fmt.Sprintf("no cut for Q%d", req.Query)}, nil
	}
	e := &relal.Exec{Parallelism: tpch.DefaultWorkers}
	t := e.Project(cut.Prefix(e, s.db), append(cut.Ship.Names(), tpch.PosCol)...)
	return s.tableResponse(t)
}

// tableResponse describes a result table and hands it on for encoding:
// its vectors cross the wire in the shape the plan produced them (a
// view is made dense first). An empty table ships as schema only.
func (s *Shard) tableResponse(t *relal.Table) (Response, *relal.Table) {
	resp := Response{Shard: s.cfg.Index, Schema: t.Schema, Rows: t.NumRows()}
	if resp.Rows == 0 {
		return resp, nil
	}
	return resp, t.Compacted()
}
