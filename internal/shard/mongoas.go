package shard

import (
	"fmt"

	"elephants/internal/cluster"
	"elephants/internal/docstore"
	"elephants/internal/sim"
)

// MongoAS is the original auto-sharded MongoDB deployment: a config
// server holding the chunk map, one mongos router per client node
// (running on the server machines, as in the paper), 16 mongod shard
// processes per server node, automatic chunk splitting, and a background
// balancer.
type MongoAS struct {
	s       *sim.Sim
	mongods []*Mongod
	mongos  []*cluster.Node // node hosting mongos i (client i's router)
	clients []*cluster.Node
	config  *cluster.Node
	chunks  *ChunkMap

	// SplitThreshold is the per-chunk document count that triggers an
	// automatic split.
	SplitThreshold int64
	// CrashQueueLimit models the socket-exception crash the paper hit
	// on Workload D: if the tail shard's global-lock queue exceeds this,
	// the system crashes (0 disables).
	CrashQueueLimit int

	balancer *Balancer
	crashed  bool

	mongosCPU sim.Duration
	splits    int64
}

// MongoASConfig configures the auto-sharded deployment.
type MongoASConfig struct {
	SplitThreshold  int64        // docs per chunk before splitting (default 2048)
	CrashQueueLimit int          // Workload D crash threshold (0 disables)
	MongosCPU       sim.Duration // router CPU per request (default 30µs)
	BalanceEvery    sim.Duration // balancer interval (0 disables)
	BalanceSlack    int          // max chunk-count imbalance tolerated (default 2)
}

// NewMongoAS assembles the deployment. mongos[i] serves clients on
// clients[i] and runs on mongosNodes[i].
func NewMongoAS(s *sim.Sim, mongods []*Mongod, mongosNodes, clients []*cluster.Node, config *cluster.Node, cfg MongoASConfig) *MongoAS {
	if cfg.SplitThreshold <= 0 {
		cfg.SplitThreshold = 2048
	}
	if cfg.MongosCPU <= 0 {
		cfg.MongosCPU = 30 * sim.Microsecond
	}
	m := &MongoAS{
		s:               s,
		mongods:         mongods,
		mongos:          mongosNodes,
		clients:         clients,
		config:          config,
		chunks:          NewChunkMap(),
		SplitThreshold:  cfg.SplitThreshold,
		CrashQueueLimit: cfg.CrashQueueLimit,
		mongosCPU:       cfg.MongosCPU,
	}
	if cfg.BalanceEvery > 0 {
		slack := cfg.BalanceSlack
		if slack <= 0 {
			slack = 2
		}
		m.balancer = NewBalancer(s, m, cfg.BalanceEvery, slack)
	}
	return m
}

// Name implements Store.
func (m *MongoAS) Name() string { return "Mongo-AS" }

// Chunks exposes the chunk map (for tests and the balancer).
func (m *MongoAS) Chunks() *ChunkMap { return m.chunks }

// Mongods exposes the shard processes.
func (m *MongoAS) Mongods() []*Mongod { return m.mongods }

// Crashed reports whether the deployment has crashed.
func (m *MongoAS) Crashed() bool { return m.crashed }

// Splits reports how many automatic chunk splits have happened.
func (m *MongoAS) Splits() int64 { return m.splits }

// StartBackground launches the balancer (if configured) and each
// mongod's flusher.
func (m *MongoAS) StartBackground() {
	if m.balancer != nil {
		m.balancer.Start()
	}
	for _, md := range m.mongods {
		md.StartBackground()
	}
}

// StopBackground stops background processes.
func (m *MongoAS) StopBackground() {
	if m.balancer != nil {
		m.balancer.Stop()
	}
	for _, md := range m.mongods {
		md.StopBackground()
	}
}

// PreSplit installs chunk boundaries round-robin across shards, as the
// paper did before loading ("we manually defined the boundaries for all
// of the initially empty chunks and spread them across the 128 shards").
func (m *MongoAS) PreSplit(boundaries []string) error {
	return m.chunks.PreSplit(boundaries, len(m.mongods))
}

func (m *MongoAS) clientNode(client int) *cluster.Node {
	return m.clients[client%len(m.clients)]
}

func (m *MongoAS) mongosNode(client int) *cluster.Node {
	return m.mongos[client%len(m.mongos)]
}

// route charges the client→mongos hop and router CPU, then returns the
// chunk index and mongod for key.
func (m *MongoAS) route(p *sim.Proc, client int, key string, reqBytes int64) (int, *Mongod) {
	cn := m.clientNode(client)
	mn := m.mongosNode(client)
	cn.Send(p, mn, reqBytes)
	mn.Compute(p, m.mongosCPU)
	ci := m.chunks.Lookup(key)
	return ci, m.mongods[m.chunks.Chunk(ci).Shard]
}

// reply charges the mongod→mongos→client reply path.
func (m *MongoAS) reply(p *sim.Proc, client int, md *Mongod, bytes int64) {
	mn := m.mongosNode(client)
	md.Node().Send(p, mn, bytes)
	mn.Send(p, m.clientNode(client), bytes)
}

// Read implements Store.
func (m *MongoAS) Read(p *sim.Proc, client int, key string) error {
	if m.crashed {
		return ErrCrashed
	}
	_, md := m.route(p, client, key, readReqBytes)
	mn := m.mongosNode(client)
	mn.Send(p, md.Node(), readReqBytes)
	if _, err := md.FindByID(p, key); err != nil {
		return err
	}
	m.reply(p, client, md, recordBytes)
	return nil
}

// Update implements Store.
func (m *MongoAS) Update(p *sim.Proc, client int, key string, field int, value string) error {
	if m.crashed {
		return ErrCrashed
	}
	_, md := m.route(p, client, key, updateReqBytes)
	mn := m.mongosNode(client)
	mn.Send(p, md.Node(), updateReqBytes)
	if err := md.UpdateByID(p, key, fmt.Sprintf("field%d", field), value); err != nil {
		return err
	}
	m.reply(p, client, md, ackBytes)
	return nil
}

// Insert implements Store. Inserts maintain chunk counts and trigger
// automatic splits; under append-only workloads every insert routes to
// the tail chunk, which is the hot spot behind the paper's Workload D
// meltdown.
func (m *MongoAS) Insert(p *sim.Proc, client int, key string, fields []string) error {
	if m.crashed {
		return ErrCrashed
	}
	ci, md := m.route(p, client, key, insertReqBytes)
	if m.CrashQueueLimit > 0 && md.GlobalLock().QueueLen() > m.CrashQueueLimit {
		m.crashed = true
		return ErrCrashed
	}
	mn := m.mongosNode(client)
	// Inserts verify the shard version against the config server before
	// committing the route (MongoDB's versioned writes); reads use the
	// cached routing table.
	mn.Send(p, m.config, ackBytes)
	mn.Send(p, md.Node(), insertReqBytes)
	if err := md.Insert(p, ycsbDoc(key, fields)); err != nil {
		return err
	}
	m.chunks.AddCount(ci, 1)
	m.maybeSplit(p, ci, md)
	m.reply(p, client, md, ackBytes)
	return nil
}

// maybeSplit splits chunk ci if it exceeds the threshold, asking the
// owning mongod for a median key and updating the config server.
func (m *MongoAS) maybeSplit(p *sim.Proc, ci int, md *Mongod) {
	ch := m.chunks.Chunk(ci)
	if ch.Count <= m.SplitThreshold {
		return
	}
	splitKey, ok := md.KeyAt(ch.Min, int(ch.Count/2))
	if !ok || splitKey <= ch.Min {
		return
	}
	if err := m.chunks.Split(ci, splitKey); err != nil {
		return
	}
	m.splits++
	// Config-server metadata round trip.
	md.Node().Send(p, m.config, ackBytes)
}

// Scan implements Store. Range partitioning lets the router hit only the
// chunks covering the range — typically one shard per short scan, which
// is why Mongo-AS wins Workload E.
func (m *MongoAS) Scan(p *sim.Proc, client int, start string, limit int) (int, error) {
	if m.crashed {
		return 0, ErrCrashed
	}
	cn := m.clientNode(client)
	mn := m.mongosNode(client)
	cn.Send(p, mn, scanReqBytes)
	mn.Compute(p, m.mongosCPU)
	total := 0
	for _, ci := range m.chunks.ChunksInRange(start, 4) {
		if total >= limit {
			break
		}
		ch := m.chunks.Chunk(ci)
		md := m.mongods[ch.Shard]
		from := start
		if ch.Min > from {
			from = ch.Min
		}
		mn.Send(p, md.Node(), scanReqBytes)
		docs, err := md.ScanRange(p, from, limit-total)
		if err != nil {
			return total, err
		}
		md.Node().Send(p, mn, int64(len(docs))*recordBytes)
		total += len(docs)
		// A chunk boundary does not truncate the scan: if this chunk
		// ran out of keys the next chunk continues the range.
		if len(docs) == 0 {
			continue
		}
	}
	if total > limit {
		total = limit
	}
	mn.Send(p, cn, int64(total)*recordBytes)
	return total, nil
}

// Load implements Store: bulk load outside the measured region, keeping
// chunk counts accurate.
func (m *MongoAS) Load(key string, fields []string) error {
	ci := m.chunks.Lookup(key)
	md := m.mongods[m.chunks.Chunk(ci).Shard]
	if err := md.Load(ycsbDoc(key, fields)); err != nil {
		return err
	}
	m.chunks.AddCount(ci, 1)
	return nil
}

// Balancer periodically evens chunk counts across shards by migrating
// one chunk per round from the most- to the least-loaded shard, charging
// the data transfer.
type Balancer struct {
	s        *sim.Sim
	m        *MongoAS
	interval sim.Duration
	slack    int
	stop     bool
	moves    int64
}

// NewBalancer returns a balancer for m.
func NewBalancer(s *sim.Sim, m *MongoAS, interval sim.Duration, slack int) *Balancer {
	return &Balancer{s: s, m: m, interval: interval, slack: slack}
}

// Moves reports completed chunk migrations.
func (b *Balancer) Moves() int64 { return b.moves }

// Start launches the balancer process.
func (b *Balancer) Start() {
	b.s.Spawn("balancer", func(p *sim.Proc) {
		for {
			p.Sleep(b.interval)
			if b.stop {
				return
			}
			b.round(p)
		}
	})
}

// Stop requests the balancer exit at its next wake-up.
func (b *Balancer) Stop() { b.stop = true }

// round migrates at most one chunk.
func (b *Balancer) round(p *sim.Proc) {
	counts := b.m.chunks.CountsByShard(len(b.m.mongods))
	maxS, minS := 0, 0
	for i, c := range counts {
		if c > counts[maxS] {
			maxS = i
		}
		if c < counts[minS] {
			minS = i
		}
	}
	if counts[maxS]-counts[minS] <= b.slack {
		return
	}
	// Find a chunk on maxS and move it to minS.
	for i := 0; i < b.m.chunks.NumChunks(); i++ {
		ch := b.m.chunks.Chunk(i)
		if ch.Shard != maxS {
			continue
		}
		var end string
		if i+1 < b.m.chunks.NumChunks() {
			end = b.m.chunks.Chunk(i + 1).Min
		}
		src, dst := b.m.mongods[maxS], b.m.mongods[minS]
		docs := src.ExportRange(ch.Min, end)
		var bytes int64
		for _, d := range docs {
			bytes += int64(len(docstore.Marshal(d)))
		}
		src.Node().Send(p, dst.Node(), bytes)
		dst.ImportDocs(docs)
		b.m.chunks.Move(i, minS)
		// Config-server metadata update.
		src.Node().Send(p, b.m.config, ackBytes)
		b.moves++
		return
	}
}
