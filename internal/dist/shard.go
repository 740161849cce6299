package dist

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

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
	// DataDir selects nothing: a shard writes no file, and a restart
	// regenerates its partition. It remains so that the benchmark's
	// configuration still compiles.
	DataDir string
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
// cover of the original rows. Scans of a partition return only the
// columns they ask for (partSource).
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
		db.SetSource(name, partSource{relal.NewTableSource(part)})
	}
	return db
}

// partSource serves a partition: its scans return the requested
// columns only (nil = every column), sharing the partition's vectors,
// under the table's own name. A cut prefix reads a few of a
// partition's columns; handed the whole table, every later step would
// carry, and measure the width of, columns the plan never reads.
type partSource struct{ *relal.TableSource }

// ScanTable implements relal.Source.
func (s partSource) ScanTable(cols []string, pred relal.ZonePredicate) (*relal.Table, relal.ScanStats) {
	t, stats := s.TableSource.ScanTable(cols, pred)
	return t.Columns(cols), stats
}

// Shard is one running shard server (in-process or the body of a shard
// OS process).
type Shard struct {
	cfg ShardConfig
	db  *tpch.DB
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	// conns are the live sessions, which Close closes; accepted counts
	// every connection served.
	conns    map[net.Conn]struct{}
	accepted int
	wg       sync.WaitGroup
}

// StartShard builds the shard's partition (BuildShardDB) and starts
// serving it from memory. Nothing writes to a shard, so it keeps no
// file: a restarted shard regenerates the same partition.
func StartShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Shards < 1 || cfg.Index < 0 || cfg.Index >= cfg.Shards {
		return nil, fmt.Errorf("dist: bad shard placement %d/%d", cfg.Index, cfg.Shards)
	}
	db := BuildShardDB(cfg)
	// A restarting shard re-binds its pinned port; give the kernel a
	// moment to release the dead incarnation's socket.
	var ln net.Listener
	var err error
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", cfg.Port))
		if err == nil {
			break
		}
		if cfg.Port == 0 || attempt >= 40 {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
	s := &Shard{cfg: cfg, db: db, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the shard's listen address.
func (s *Shard) Addr() string { return s.ln.Addr().String() }

// Port returns the shard's listen port.
func (s *Shard) Port() int { return s.ln.Addr().(*net.TCPAddr).Port }

// Close stops serving and closes every session (idle ones included, so
// it never waits for a coordinator to hang up).
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
	return nil
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
		return Response{Shard: s.cfg.Index}, nil
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
