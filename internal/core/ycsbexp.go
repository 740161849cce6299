package core

import (
	"fmt"
	"io"
	"math/rand"

	"elephants/internal/cluster"
	"elephants/internal/shard"
	"elephants/internal/sim"
	"elephants/internal/sqleng"
	"elephants/internal/ycsb"
)

// YCSBScale scales the paper's YCSB deployment (8 server nodes, 16
// mongod per node, 640 M records, 800 clients) down to simulation size
// while preserving the ratios that matter: dataset 2.5× the modeled
// memory, 2 mongod shards per SQL shard per node pair, hash vs range
// partitioning.
type YCSBScale struct {
	ServerNodes    int
	ClientNodes    int
	MongodsPerNode int
	RecordsPerNode int
	// MemoryRatio is dataset bytes / modeled memory (paper: 2.5).
	MemoryRatio float64
	Clients     int
	Warmup      sim.Duration
	Measure     sim.Duration
	Seed        int64
}

// DefaultYCSBScale returns a laptop-sized deployment.
func DefaultYCSBScale() YCSBScale {
	return YCSBScale{
		ServerNodes:    2,
		ClientNodes:    2,
		MongodsPerNode: 8,
		RecordsPerNode: 2000,
		MemoryRatio:    2.5,
		Clients:        32,
		Warmup:         5 * sim.Second,
		Measure:        15 * sim.Second,
		Seed:           1,
	}
}

func (sc YCSBScale) records() int64 { return int64(sc.RecordsPerNode * sc.ServerNodes) }

// recordBytes is the YCSB record size (24 B key + 10×100 B fields).
const recordBytes = 1024

// System names.
const (
	SystemSQLCS   = "SQL-CS"
	SystemMongoCS = "Mongo-CS"
	SystemMongoAS = "Mongo-AS"
)

// Systems lists the three YCSB systems in paper order.
var Systems = []string{SystemMongoAS, SystemMongoCS, SystemSQLCS}

// deployment is one fully assembled system inside its own simulator.
type deployment struct {
	s     *sim.Sim
	store shard.Store
	start func()
	stop  func()
}

// buildDeployment assembles and loads the named system.
func buildDeployment(system string, sc YCSBScale, crashLimit int, isolation sqleng.IsolationLevel) deployment {
	s := sim.New()
	total := sc.ServerNodes + sc.ClientNodes + 1
	cl := cluster.New(s, cluster.DefaultN(total))
	servers := cl.Nodes[:sc.ServerNodes]
	clients := cl.Nodes[sc.ServerNodes : sc.ServerNodes+sc.ClientNodes]
	config := cl.Nodes[total-1]

	perNodeBytes := int64(sc.RecordsPerNode) * recordBytes
	memBytes := int64(float64(perNodeBytes) / sc.MemoryRatio)

	var d deployment
	d.s = s
	switch system {
	case SystemSQLCS:
		var engines []*sqleng.Engine
		for _, n := range servers {
			engines = append(engines, sqleng.New(s, n, sqleng.Config{
				BufferPoolPages: int(memBytes / sqleng.PageSize),
				Isolation:       isolation,
				CheckpointEvery: 20 * sim.Second,
			}))
		}
		st := shard.NewSQLCS(engines, clients)
		d.store = st
		d.start = func() {
			for _, e := range engines {
				e.StartBackground()
			}
		}
		d.stop = func() {
			for _, e := range engines {
				e.StopBackground()
			}
		}
	case SystemMongoCS:
		mongods := buildMongods(s, servers, sc, memBytes)
		st := shard.NewMongoCS(mongods, clients)
		d.store = st
		d.start = func() {
			for _, m := range mongods {
				m.StartBackground()
			}
		}
		d.stop = func() {
			for _, m := range mongods {
				m.StopBackground()
			}
		}
	case SystemMongoAS:
		mongods := buildMongods(s, servers, sc, memBytes)
		var mongosNodes []*cluster.Node
		for i := range clients {
			mongosNodes = append(mongosNodes, servers[i%len(servers)])
		}
		mas := shard.NewMongoAS(s, mongods, mongosNodes, clients, config, shard.MongoASConfig{
			SplitThreshold:  int64(sc.RecordsPerNode),
			CrashQueueLimit: crashLimit,
			BalanceEvery:    10 * sim.Second,
		})
		// Pre-split boundaries across shards, as the paper's load did.
		nShards := len(mongods)
		per := sc.records() / int64(nShards)
		var bounds []string
		for i := int64(1); i < int64(nShards); i++ {
			bounds = append(bounds, ycsb.Key(i*per))
		}
		if err := mas.PreSplit(bounds); err != nil {
			panic(err)
		}
		d.store = mas
		d.start = mas.StartBackground
		d.stop = mas.StopBackground
	default:
		panic("core: unknown system " + system)
	}
	return d
}

func buildMongods(s *sim.Sim, servers []*cluster.Node, sc YCSBScale, memBytes int64) []*shard.Mongod {
	var mongods []*shard.Mongod
	perMongodMem := memBytes / int64(sc.MongodsPerNode)
	extents := int(perMongodMem / shard.ExtentSize)
	if extents < 1 {
		extents = 1 // never fall through to "whole node memory"
	}
	for i := 0; i < sc.ServerNodes*sc.MongodsPerNode; i++ {
		mongods = append(mongods, shard.NewMongod(s, servers[i%len(servers)], shard.MongodConfig{
			ResidentExtents: extents,
			FlushEvery:      20 * sim.Second,
		}))
	}
	return mongods
}

// loadStore bulk-loads the dataset outside the measured region.
func loadStore(st shard.Store, sc YCSBScale) {
	rng := rand.New(rand.NewSource(sc.Seed))
	n := sc.records()
	for i := int64(0); i < n; i++ {
		if err := st.Load(ycsb.Key(i), ycsb.MakeFields(rng)); err != nil {
			panic(err)
		}
	}
}

// CurvePoint is one (target, result) sample on a latency/throughput
// curve.
type CurvePoint struct {
	Target float64
	Result ycsb.Result
}

// RunCurve produces the latency-vs-throughput curve for one system on
// one workload: a fresh deployment per target, as the paper reloaded
// between runs.
func RunCurve(system string, w ycsb.Workload, targets []float64, sc YCSBScale) []CurvePoint {
	var out []CurvePoint
	for _, target := range targets {
		out = append(out, CurvePoint{Target: target, Result: RunPoint(system, w, target, sc)})
	}
	return out
}

// RunPoint runs one benchmark point.
func RunPoint(system string, w ycsb.Workload, target float64, sc YCSBScale) ycsb.Result {
	crashLimit := 0
	if w.Name == "D" && system == SystemMongoAS {
		// The paper's Workload D crash appears past 20 kops/sec; scale
		// the queue threshold so overload, not normal load, trips it.
		crashLimit = 48
	}
	d := buildDeployment(system, sc, crashLimit, sqleng.ReadCommitted)
	loadStore(d.store, sc)
	return ycsb.Run(d.s, d.store, ycsb.RunConfig{
		Workload:  w,
		Records:   sc.records(),
		Clients:   sc.Clients,
		TargetOps: target,
		Warmup:    sc.Warmup,
		Measure:   sc.Measure,
		Seed:      sc.Seed,
		Start:     d.start,
		Stop:      d.stop,
	})
}

// RunPointIsolation is RunPoint for SQL-CS with a chosen isolation
// level (the paper's §3.4.3 read-uncommitted ablation on Workload A).
func RunPointIsolation(w ycsb.Workload, target float64, sc YCSBScale, iso sqleng.IsolationLevel) ycsb.Result {
	d := buildDeployment(SystemSQLCS, sc, 0, iso)
	loadStore(d.store, sc)
	return ycsb.Run(d.s, d.store, ycsb.RunConfig{
		Workload:  w,
		Records:   sc.records(),
		Clients:   sc.Clients,
		TargetOps: target,
		Warmup:    sc.Warmup,
		Measure:   sc.Measure,
		Seed:      sc.Seed,
		Start:     d.start,
		Stop:      d.stop,
	})
}

// RunLoadTimes regenerates the §3.4.2 load-time comparison (virtual
// minutes for Mongo-AS / SQL-CS / Mongo-CS).
func RunLoadTimes(sc YCSBScale) map[string]sim.Duration {
	out := make(map[string]sim.Duration)
	for _, system := range Systems {
		d := buildDeployment(system, sc, 0, sqleng.ReadCommitted)
		out[system] = ycsb.RunLoad(d.s, d.store, ycsb.LoadConfig{
			Records: sc.records(),
			Clients: sc.Clients,
			Seed:    sc.Seed,
		})
	}
	return out
}

// FigureTargets holds the per-figure target throughput sweeps, scaled
// from the paper's x-axes (which ran 5–160 kops for reads and 250–8000
// ops for scans on 8 nodes).
type FigureTargets struct {
	C, B, A, D, E []float64
}

// DefaultTargets returns sweeps sized for the scaled deployment.
func DefaultTargets() FigureTargets {
	return FigureTargets{
		C: []float64{250, 500, 1000, 2000, 4000, 8000},
		B: []float64{250, 500, 1000, 2000, 4000, 8000},
		A: []float64{100, 250, 500, 1000, 2000, 4000},
		D: []float64{500, 1000, 2000, 4000, 8000, 16000},
		E: []float64{25, 50, 100, 200, 400},
	}
}

// WriteCurve prints one figure's series for all systems.
func WriteCurve(w io.Writer, title string, curves map[string][]CurvePoint, kinds []ycsb.OpKind) {
	fmt.Fprintln(w, title)
	for _, system := range Systems {
		pts, ok := curves[system]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %s:\n", system)
		fmt.Fprintf(w, "    %10s %12s", "target", "achieved")
		for _, k := range kinds {
			fmt.Fprintf(w, " %18s", k.String()+" ms (±se)")
		}
		fmt.Fprintln(w)
		for _, pt := range pts {
			fmt.Fprintf(w, "    %10.0f %12.0f", pt.Target, pt.Result.Throughput)
			for _, k := range kinds {
				s := pt.Result.Latency[k]
				fmt.Fprintf(w, "    %7.2f ± %6.2f", s.Mean, s.StdErr)
			}
			if pt.Result.Crashed {
				fmt.Fprintf(w, "   CRASHED")
			}
			fmt.Fprintln(w)
		}
	}
}
