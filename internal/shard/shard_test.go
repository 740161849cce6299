package shard

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"elephants/internal/cluster"
	"elephants/internal/sim"
	"elephants/internal/sqleng"
)

func TestChunkMapLookup(t *testing.T) {
	c := NewChunkMap()
	if err := c.PreSplit([]string{"g", "p"}, 3); err != nil {
		t.Fatal(err)
	}
	cases := map[string]int{"a": 0, "g": 1, "h": 1, "p": 2, "z": 2}
	for key, want := range cases {
		if got := c.Lookup(key); got != want {
			t.Errorf("Lookup(%q) = %d, want %d", key, got, want)
		}
	}
}

func TestChunkMapPreSplitRoundRobin(t *testing.T) {
	c := NewChunkMap()
	if err := c.PreSplit([]string{"b", "c", "d"}, 2); err != nil {
		t.Fatal(err)
	}
	counts := c.CountsByShard(2)
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("counts = %v, want [2 2]", counts)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestChunkMapPreSplitErrors(t *testing.T) {
	c := NewChunkMap()
	if err := c.PreSplit([]string{"b", "a"}, 2); err == nil {
		t.Error("unsorted boundaries should fail")
	}
	if err := c.PreSplit([]string{"a", "a"}, 2); err == nil {
		t.Error("duplicate boundaries should fail")
	}
	if err := c.PreSplit([]string{""}, 2); err == nil {
		t.Error("empty boundary should fail")
	}
	if err := c.PreSplit([]string{"a"}, 0); err == nil {
		t.Error("zero shards should fail")
	}
}

func TestChunkMapSplit(t *testing.T) {
	c := NewChunkMap()
	c.AddCount(0, 10)
	if err := c.Split(0, "m"); err != nil {
		t.Fatal(err)
	}
	if c.NumChunks() != 2 {
		t.Fatalf("chunks = %d, want 2", c.NumChunks())
	}
	if c.Chunk(0).Count+c.Chunk(1).Count != 10 {
		t.Error("split must preserve total count")
	}
	if c.ShardFor("a") != 0 || c.ShardFor("z") != 0 {
		t.Error("both halves stay on the original shard")
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	if err := c.Split(0, ""); err == nil {
		t.Error("split at or below min should fail")
	}
	if err := c.Split(0, "z"); err == nil {
		t.Error("split beyond chunk end should fail")
	}
}

func TestChunkMapValidateCatchesBadState(t *testing.T) {
	c := &ChunkMap{chunks: []Chunk{{Min: "x"}}}
	if err := c.Validate(); err == nil {
		t.Error("first chunk with non-empty min should fail validation")
	}
	c = &ChunkMap{chunks: []Chunk{{Min: ""}, {Min: "b"}, {Min: "a"}}}
	if err := c.Validate(); err == nil {
		t.Error("non-ascending mins should fail validation")
	}
}

func TestChunkMapSplitInvariantProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		c := NewChunkMap()
		for _, r := range raw {
			key := fmt.Sprintf("k%05d", r%10000+1)
			i := c.Lookup(key)
			ch := c.Chunk(i)
			if key <= ch.Min {
				continue
			}
			if i+1 < c.NumChunks() && key >= c.Chunk(i+1).Min {
				continue
			}
			if err := c.Split(i, key); err != nil {
				return false
			}
		}
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHashShardsStableAndInRange(t *testing.T) {
	h := NewHashShards(8)
	f := func(key string) bool {
		s := h.ShardFor(key)
		return s >= 0 && s < 8 && s == h.ShardFor(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashShardsBalance(t *testing.T) {
	h := NewHashShards(8)
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[h.ShardFor(fmt.Sprintf("user%024d", i))]++
	}
	for s, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("shard %d has %d of 8000 keys; want ~1000", s, c)
		}
	}
}

// testDeployment builds a small 2-server/2-client deployment of all
// three systems sharing one simulator.
type testDeployment struct {
	s      *sim.Sim
	sqlcs  *SQLCS
	mcs    *MongoCS
	mas    *MongoAS
	config *cluster.Node
}

func newDeployment(asCfg MongoASConfig) *testDeployment {
	s := sim.New()
	cl := cluster.New(s, cluster.Config{Nodes: 5}) // 2 servers, 2 clients, 1 config
	servers := cl.Nodes[0:2]
	clients := cl.Nodes[2:4]
	config := cl.Nodes[4]

	engines := []*sqleng.Engine{
		sqleng.New(s, servers[0], sqleng.Config{}),
		sqleng.New(s, servers[1], sqleng.Config{}),
	}
	var csMongods, asMongods []*Mongod
	for i := 0; i < 4; i++ {
		csMongods = append(csMongods, NewMongod(s, servers[i%2], MongodConfig{}))
		asMongods = append(asMongods, NewMongod(s, servers[i%2], MongodConfig{}))
	}
	return &testDeployment{
		s:      s,
		sqlcs:  NewSQLCS(engines, clients),
		mcs:    NewMongoCS(csMongods, clients),
		mas:    NewMongoAS(s, asMongods, []*cluster.Node{servers[0], servers[1]}, clients, config, asCfg),
		config: config,
	}
}

func fields() []string {
	f := make([]string, FieldCount)
	for i := range f {
		f[i] = string(make([]byte, 100))
	}
	return f
}

func TestStoresInsertReadUpdate(t *testing.T) {
	d := newDeployment(MongoASConfig{})
	stores := []Store{d.sqlcs, d.mcs, d.mas}
	errs := make([]error, len(stores))
	for i, st := range stores {
		i, st := i, st
		d.s.Spawn(st.Name(), func(p *sim.Proc) {
			key := fmt.Sprintf("user%06d", i)
			if err := st.Insert(p, 0, key, fields()); err != nil {
				errs[i] = fmt.Errorf("%s insert: %w", st.Name(), err)
				return
			}
			if err := st.Read(p, 0, key); err != nil {
				errs[i] = fmt.Errorf("%s read: %w", st.Name(), err)
				return
			}
			if err := st.Update(p, 0, key, 3, "newval"); err != nil {
				errs[i] = fmt.Errorf("%s update: %w", st.Name(), err)
			}
		})
	}
	d.s.Run()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestStoresReadMissing(t *testing.T) {
	d := newDeployment(MongoASConfig{})
	stores := []Store{d.sqlcs, d.mcs, d.mas}
	errs := make([]error, len(stores))
	for i, st := range stores {
		i, st := i, st
		d.s.Spawn(st.Name(), func(p *sim.Proc) {
			errs[i] = st.Read(p, 0, "nope")
		})
	}
	d.s.Run()
	for i, err := range errs {
		if err == nil {
			t.Errorf("%s: read of missing key should fail", stores[i].Name())
		}
	}
}

func TestScanCounts(t *testing.T) {
	d := newDeployment(MongoASConfig{})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("user%06d", i)
		d.sqlcs.Load(key, fields())
		d.mcs.Load(key, fields())
		d.mas.Load(key, fields())
	}
	stores := []Store{d.sqlcs, d.mcs, d.mas}
	counts := make([]int, len(stores))
	for i, st := range stores {
		i, st := i, st
		d.s.Spawn(st.Name(), func(p *sim.Proc) {
			counts[i], _ = st.Scan(p, 0, "user000010", 10)
		})
	}
	d.s.Run()
	for i, st := range stores {
		if counts[i] != 10 {
			t.Errorf("%s scan returned %d, want 10", st.Name(), counts[i])
		}
	}
}

func TestMongoASScanTouchesOneShard(t *testing.T) {
	d := newDeployment(MongoASConfig{})
	// Pre-split into 4 chunks so the range lives on one shard.
	if err := d.mas.PreSplit([]string{"user000100", "user000200", "user000300"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		d.mas.Load(fmt.Sprintf("user%06d", i), fields())
	}
	d.s.Spawn("scan", func(p *sim.Proc) {
		d.mas.Scan(p, 0, "user000110", 10)
	})
	d.s.Run()
	scansPerShard := make([]int64, 4)
	for i, md := range d.mas.Mongods() {
		_, _, _, sc := md.Stats()
		scansPerShard[i] = sc
	}
	touched := 0
	for _, sc := range scansPerShard {
		if sc > 0 {
			touched++
		}
	}
	if touched != 1 {
		t.Errorf("Mongo-AS short scan touched %d shards, want 1 (range partitioning)", touched)
	}
}

func TestMongoCSScanFansOutToAllShards(t *testing.T) {
	d := newDeployment(MongoASConfig{})
	for i := 0; i < 400; i++ {
		d.mcs.Load(fmt.Sprintf("user%06d", i), fields())
	}
	d.s.Spawn("scan", func(p *sim.Proc) {
		d.mcs.Scan(p, 0, "user000110", 10)
	})
	d.s.Run()
	touched := 0
	for _, md := range d.mcs.mongods {
		_, _, _, sc := md.Stats()
		if sc > 0 {
			touched++
		}
	}
	if touched != len(d.mcs.mongods) {
		t.Errorf("Mongo-CS scan touched %d shards, want all %d (hash partitioning)", touched, len(d.mcs.mongods))
	}
}

func TestMongoASAutoSplit(t *testing.T) {
	d := newDeployment(MongoASConfig{SplitThreshold: 50})
	var err error
	d.s.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if e := d.mas.Insert(p, 0, fmt.Sprintf("user%06d", i), fields()); e != nil {
				err = e
				return
			}
		}
	})
	d.s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.mas.Splits() == 0 {
		t.Error("expected automatic chunk splits after 200 inserts with threshold 50")
	}
	if got := d.mas.Chunks().NumChunks(); got < 2 {
		t.Errorf("chunks = %d, want >= 2", got)
	}
	if err := d.mas.Chunks().Validate(); err != nil {
		t.Error(err)
	}
}

func TestBalancerEvensChunks(t *testing.T) {
	d := newDeployment(MongoASConfig{SplitThreshold: 25, BalanceEvery: sim.Second, BalanceSlack: 1})
	d.mas.StartBackground()
	var insertErr error
	d.s.Spawn("load", func(p *sim.Proc) {
		// Sequential keys: all splits pile onto shard 0 until the
		// balancer moves chunks away.
		for i := 0; i < 300; i++ {
			if e := d.mas.Insert(p, 0, fmt.Sprintf("user%06d", i), fields()); e != nil {
				insertErr = e
				break
			}
			p.Sleep(50 * sim.Millisecond)
		}
		// Let the balancer settle after the load stops.
		p.Sleep(20 * sim.Second)
		d.mas.StopBackground()
	})
	d.s.Run()
	if insertErr != nil {
		t.Fatal(insertErr)
	}
	if d.mas.balancer.Moves() == 0 {
		t.Error("balancer should have migrated at least one chunk")
	}
	counts := d.mas.Chunks().CountsByShard(4)
	sort.Ints(counts)
	if counts[3]-counts[0] > 3 {
		t.Errorf("chunk counts still unbalanced after balancing: %v", counts)
	}
}

func TestBalancerPreservesData(t *testing.T) {
	d := newDeployment(MongoASConfig{SplitThreshold: 25, BalanceEvery: sim.Second, BalanceSlack: 1})
	d.mas.StartBackground()
	const n = 300
	d.s.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			d.mas.Insert(p, 0, fmt.Sprintf("user%06d", i), fields())
			p.Sleep(50 * sim.Millisecond)
		}
		d.mas.StopBackground()
	})
	d.s.Run()
	total := 0
	for _, md := range d.mas.Mongods() {
		total += md.Count()
	}
	if total != n {
		t.Fatalf("documents after balancing = %d, want %d", total, n)
	}
	// Every key must be readable through the router.
	var readErr error
	d.s.Spawn("verify", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := d.mas.Read(p, 0, fmt.Sprintf("user%06d", i)); err != nil {
				readErr = err
				return
			}
		}
	})
	d.s.Run()
	if readErr != nil {
		t.Errorf("read after balancing: %v", readErr)
	}
}

func TestMongoASCrashUnderAppendOverload(t *testing.T) {
	d := newDeployment(MongoASConfig{CrashQueueLimit: 3})
	for i := 0; i < 10; i++ {
		d.mas.Load(fmt.Sprintf("user%06d", i), fields())
	}
	// Flood the tail chunk with concurrent appends.
	var sawCrash bool
	for c := 0; c < 64; c++ {
		c := c
		d.s.Spawn("appender", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("userz%03d_%03d", c, i)
				if err := d.mas.Insert(p, c, key, fields()); err == ErrCrashed {
					sawCrash = true
					return
				}
			}
		})
	}
	d.s.Run()
	if !sawCrash || !d.mas.Crashed() {
		t.Error("Mongo-AS should crash under append overload (Workload D behaviour)")
	}
}
