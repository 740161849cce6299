package ycsb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"elephants/internal/cluster"
	"elephants/internal/shard"
	"elephants/internal/sim"
	"elephants/internal/sqleng"
)

func TestKeyFormat(t *testing.T) {
	k := Key(42)
	if len(k) != KeyLen {
		t.Errorf("key length = %d, want %d", len(k), KeyLen)
	}
	if k != "000000000000000000000042" {
		t.Errorf("key = %q", k)
	}
}

func TestKeyOrderMatchesIntOrder(t *testing.T) {
	f := func(a, b uint32) bool {
		ka, kb := Key(int64(a)), Key(int64(b))
		return (a < b) == (ka < kb) || a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Uniform{N: 100}
	for i := 0; i < 1000; i++ {
		v := g.Next(rng)
		if v < 0 || v >= 100 {
			t.Fatalf("uniform out of range: %d", v)
		}
	}
}

func TestZipfianBoundsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int64(nRaw)%10000 + 2
		z := NewZipfian(n, 0)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			v := z.Next(rng)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestZipfianIsSkewed(t *testing.T) {
	z := NewZipfian(10000, 0)
	rng := rand.New(rand.NewSource(3))
	head := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if z.Next(rng) < 100 {
			head++
		}
	}
	// With theta=0.99 the top 1% of items draw far more than 1% of
	// requests; expect well above 30%.
	if float64(head)/draws < 0.3 {
		t.Errorf("top-100 items drew %.1f%% of requests; zipfian should be skewed", 100*float64(head)/draws)
	}
}

func TestZipfianGrowKeepsBounds(t *testing.T) {
	z := NewZipfian(100, 0)
	z.Grow(1000)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		v := z.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range after grow: %d", v)
		}
	}
	if z.N() != 1000 {
		t.Errorf("N = %d, want 1000", z.N())
	}
	z.Grow(10) // shrink is a no-op
	if z.N() != 1000 {
		t.Error("Grow must not shrink")
	}
}

func TestScrambledZipfianSpreads(t *testing.T) {
	g := NewScrambledZipfian(10000)
	rng := rand.New(rand.NewSource(5))
	// The most popular items should not be contiguous near zero.
	low := 0
	for i := 0; i < 2000; i++ {
		if g.Next(rng) < 100 {
			low++
		}
	}
	if float64(low)/2000 > 0.3 {
		t.Errorf("scrambled zipfian still concentrated at low keys (%d/2000)", low)
	}
}

func TestLatestSkewsToRecent(t *testing.T) {
	l := NewLatest(10000)
	rng := rand.New(rand.NewSource(6))
	recent := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if l.Next(rng) >= 9900 {
			recent++
		}
	}
	if float64(recent)/draws < 0.3 {
		t.Errorf("latest distribution drew recent items only %.1f%% of the time", 100*float64(recent)/draws)
	}
}

func TestUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := UniformRange{Lo: 1, Hi: 100}
	for i := 0; i < 1000; i++ {
		v := u.Next(rng)
		if v < 1 || v > 100 {
			t.Fatalf("out of range: %d", v)
		}
	}
	if (UniformRange{Lo: 5, Hi: 5}).Next(rng) != 5 {
		t.Error("degenerate range should return Lo")
	}
}

func TestWorkloadRatiosSumToOne(t *testing.T) {
	for _, w := range Workloads {
		sum := w.ReadPct + w.UpdatePct + w.InsertPct + w.ScanPct
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("workload %s ratios sum to %g", w.Name, sum)
		}
	}
}

func TestByName(t *testing.T) {
	if w, ok := ByName("E"); !ok || w.ScanPct != 0.95 {
		t.Errorf("ByName(E) = %+v, %v", w, ok)
	}
	if _, ok := ByName("Z"); ok {
		t.Error("ByName(Z) should fail")
	}
}

func TestPickOpDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	counts := make(map[OpKind]int)
	for i := 0; i < 10000; i++ {
		counts[pickOp(WorkloadB, rng)]++
	}
	if counts[OpRead] < 9200 || counts[OpRead] > 9800 {
		t.Errorf("workload B reads = %d/10000, want ~9500", counts[OpRead])
	}
	if counts[OpScan] != 0 || counts[OpInsert] != 0 {
		t.Error("workload B must not produce scans or appends")
	}
}

// smallSQLCS builds a tiny loaded SQL-CS deployment for runner tests.
func smallSQLCS(records int64) (*sim.Sim, *shard.SQLCS) {
	s := sim.New()
	cl := cluster.New(s, cluster.Config{Nodes: 3})
	engines := []*sqleng.Engine{
		sqleng.New(s, cl.Nodes[0], sqleng.Config{}),
		sqleng.New(s, cl.Nodes[1], sqleng.Config{}),
	}
	st := shard.NewSQLCS(engines, cl.Nodes[2:3])
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < records; i++ {
		st.Load(Key(i), MakeFields(rng))
	}
	return s, st
}

func TestRunProducesThroughputAndLatency(t *testing.T) {
	s, st := smallSQLCS(500)
	res := Run(s, st, RunConfig{
		Workload: WorkloadC,
		Records:  500,
		Clients:  4,
		Warmup:   sim.Second,
		Measure:  10 * sim.Second,
		Seed:     1,
	})
	if res.Throughput <= 0 {
		t.Fatal("throughput should be positive")
	}
	if res.Ops[OpRead] == 0 {
		t.Fatal("no reads recorded")
	}
	if res.Latency[OpRead].Mean <= 0 {
		t.Error("read latency should be positive")
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d, want 0", res.Errors)
	}
}

func TestRunThrottlingCapsThroughput(t *testing.T) {
	s, st := smallSQLCS(500)
	res := Run(s, st, RunConfig{
		Workload:  WorkloadC,
		Records:   500,
		Clients:   4,
		TargetOps: 50,
		Warmup:    sim.Second,
		Measure:   20 * sim.Second,
		Seed:      1,
	})
	if res.Throughput > 60 {
		t.Errorf("throughput %.1f exceeds target 50 by too much", res.Throughput)
	}
	if res.Throughput < 40 {
		t.Errorf("throughput %.1f far below achievable target 50", res.Throughput)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		s, st := smallSQLCS(200)
		return Run(s, st, RunConfig{
			Workload: WorkloadA,
			Records:  200,
			Clients:  2,
			Measure:  5 * sim.Second,
			Seed:     42,
		})
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput {
		t.Errorf("throughput not deterministic: %g vs %g", a.Throughput, b.Throughput)
	}
	if a.Ops[OpRead] != b.Ops[OpRead] || a.Ops[OpUpdate] != b.Ops[OpUpdate] {
		t.Errorf("op counts differ: %v vs %v", a.Ops, b.Ops)
	}
}

func TestRunWorkloadDAppends(t *testing.T) {
	s, st := smallSQLCS(300)
	res := Run(s, st, RunConfig{
		Workload: WorkloadD,
		Records:  300,
		Clients:  4,
		Measure:  10 * sim.Second,
		Seed:     2,
	})
	if res.Ops[OpInsert] == 0 {
		t.Error("workload D should append records")
	}
	if res.Ops[OpRead] == 0 {
		t.Error("workload D should read records")
	}
}

func TestRunWorkloadEScans(t *testing.T) {
	s, st := smallSQLCS(300)
	res := Run(s, st, RunConfig{
		Workload: WorkloadE,
		Records:  300,
		Clients:  2,
		Measure:  10 * sim.Second,
		Seed:     3,
	})
	if res.Ops[OpScan] == 0 {
		t.Error("workload E should scan")
	}
	if res.Latency[OpScan].Mean <= res.Latency[OpInsert].Mean {
		t.Log("scan latency not above append latency (acceptable at tiny scale)")
	}
}

func TestRunLoadTakesTime(t *testing.T) {
	s, st := smallSQLCS(0)
	d := RunLoad(s, st, LoadConfig{Records: 200, Clients: 4, Seed: 1})
	if d <= 0 {
		t.Fatal("load duration should be positive")
	}
	// All records must actually be there.
	s2, st2 := smallSQLCS(200)
	var err error
	s2.Spawn("check", func(p *sim.Proc) {
		err = st2.Read(p, 0, Key(199))
	})
	s2.Run()
	if err != nil {
		t.Errorf("record 199 unreadable after load: %v", err)
	}
}

func TestMongoStoresRunnable(t *testing.T) {
	s := sim.New()
	cl := cluster.New(s, cluster.Config{Nodes: 3})
	var mongods []*shard.Mongod
	for i := 0; i < 4; i++ {
		mongods = append(mongods, shard.NewMongod(s, cl.Nodes[i%2], shard.MongodConfig{}))
	}
	st := shard.NewMongoCS(mongods, cl.Nodes[2:3])
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < 300; i++ {
		st.Load(Key(i), MakeFields(rng))
	}
	res := Run(s, st, RunConfig{
		Workload: WorkloadA,
		Records:  300,
		Clients:  4,
		Measure:  10 * sim.Second,
		Seed:     9,
	})
	if res.Throughput <= 0 || res.Errors > 0 {
		t.Errorf("mongo run: throughput=%.1f errors=%d", res.Throughput, res.Errors)
	}
}
