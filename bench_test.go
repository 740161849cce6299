// Package elephants holds the benchmark harness that regenerates every
// table and figure in the paper's evaluation, one testing.B benchmark
// per artifact, plus ablation benches for the modeled engines' design
// choices. Reported custom metrics are virtual-time measurements from
// the simulation (the paper's columns); ns/op is host time and is not
// meaningful for comparison with the paper.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package elephants

import (
	"fmt"
	"testing"

	"elephants/internal/cluster"
	"elephants/internal/core"
	"elephants/internal/hive"
	"elephants/internal/pdw"
	"elephants/internal/sim"
	"elephants/internal/sqleng"
	"elephants/internal/tpch"
	"elephants/internal/ycsb"
)

// benchSFs are the modeled scale factors for the TPC-H benches. The
// paper's four points (250/1000/4000/16000) all work; the default pair
// keeps a full bench run fast.
var benchSFs = []float64{250, 1000}

func benchTPCHConfig(queries []int) core.TPCHConfig {
	return core.TPCHConfig{
		LaptopSF:     0.002,
		ScaleFactors: benchSFs,
		Queries:      queries,
		Seed:         1,
	}
}

// BenchmarkTable2LoadTimes regenerates Table 2: Hive vs PDW load times.
func BenchmarkTable2LoadTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := core.RunTPCH(benchTPCHConfig([]int{1}))
		b.ReportMetric(res.Hive[0].LoadTime.Seconds()/60, "hive-load-min@250")
		b.ReportMetric(res.PDW[0].LoadTime.Seconds()/60, "pdw-load-min@250")
	}
}

// BenchmarkTable3TPCH regenerates Table 3: all 22 queries on both
// engines, with AM/GM and the PDW speedup.
func BenchmarkTable3TPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := core.RunTPCH(benchTPCHConfig(nil))
		for si := range benchSFs {
			ha, _ := res.Hive[si].Means(9)
			pa, _ := res.PDW[si].Means(9)
			b.ReportMetric(ha, "hive-am-sec")
			b.ReportMetric(pa, "pdw-am-sec")
			b.ReportMetric(ha/pa, "speedup")
		}
	}
}

// BenchmarkTable4Q1MapPhase regenerates Table 4: Q1's map-phase time at
// each scale factor and the per-4× scaling factor.
func BenchmarkTable4Q1MapPhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := core.RunTPCH(core.TPCHConfig{
			LaptopSF:     0.002,
			ScaleFactors: []float64{250, 1000, 4000},
			Queries:      []int{1},
			Seed:         1,
		})
		m0 := res.Hive[0].HiveQ1MapPhase.Seconds()
		m1 := res.Hive[1].HiveQ1MapPhase.Seconds()
		m2 := res.Hive[2].HiveQ1MapPhase.Seconds()
		b.ReportMetric(m0, "map-sec@250")
		b.ReportMetric(m1/m0, "scale-250-1000")
		b.ReportMetric(m2/m1, "scale-1000-4000")
	}
}

// BenchmarkTable5Q22Breakdown regenerates Table 5: Q22's per-sub-query
// times.
func BenchmarkTable5Q22Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := core.RunTPCH(benchTPCHConfig([]int{22}))
		for sub := 1; sub <= 4; sub++ {
			b.ReportMetric(res.Hive[0].HiveQ22Breakdown[sub].Seconds(),
				[]string{"", "sq1-sec", "sq2-sec", "sq3-sec", "sq4-sec"}[sub])
		}
	}
}

// BenchmarkFigure1Normalized regenerates Figure 1: normalized AM/GM of
// the response times (normalized to PDW at the smallest SF).
func BenchmarkFigure1Normalized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := core.RunTPCH(benchTPCHConfig(nil))
		baseAM, baseGM := res.PDW[0].Means(9)
		ha, hg := res.Hive[len(benchSFs)-1].Means(9)
		b.ReportMetric(ha/baseAM, "hive-norm-am")
		b.ReportMetric(hg/baseGM, "hive-norm-gm")
	}
}

// ycsbBenchScale is the scaled-down YCSB deployment used by the figure
// benches.
func ycsbBenchScale() core.YCSBScale {
	sc := core.DefaultYCSBScale()
	sc.RecordsPerNode = 1000
	sc.Clients = 24
	sc.Warmup = 3 * sim.Second
	sc.Measure = 10 * sim.Second
	return sc
}

// benchCurve runs a reduced sweep (unthrottled peak only) for every
// system and reports peak throughput and latency.
func benchCurve(b *testing.B, w ycsb.Workload, latKind ycsb.OpKind) {
	sc := ycsbBenchScale()
	for i := 0; i < b.N; i++ {
		for _, system := range core.Systems {
			res := core.RunPoint(system, w, 0, sc)
			b.ReportMetric(res.Throughput, system+"-peak-ops")
			b.ReportMetric(res.Latency[latKind].Mean, system+"-"+latKind.String()+"-ms")
		}
	}
}

// BenchmarkFigure2WorkloadC regenerates Figure 2 (read-only).
func BenchmarkFigure2WorkloadC(b *testing.B) { benchCurve(b, ycsb.WorkloadC, ycsb.OpRead) }

// BenchmarkFigure3WorkloadB regenerates Figure 3 (95/5 read/update).
func BenchmarkFigure3WorkloadB(b *testing.B) { benchCurve(b, ycsb.WorkloadB, ycsb.OpRead) }

// BenchmarkFigure4WorkloadA regenerates Figure 4 (50/50).
func BenchmarkFigure4WorkloadA(b *testing.B) { benchCurve(b, ycsb.WorkloadA, ycsb.OpUpdate) }

// BenchmarkFigure5WorkloadD regenerates Figure 5 (read-latest).
func BenchmarkFigure5WorkloadD(b *testing.B) { benchCurve(b, ycsb.WorkloadD, ycsb.OpInsert) }

// BenchmarkFigure6WorkloadE regenerates Figure 6 (short scans) — the
// one workload Mongo-AS wins.
func BenchmarkFigure6WorkloadE(b *testing.B) { benchCurve(b, ycsb.WorkloadE, ycsb.OpScan) }

// BenchmarkYCSBLoadTimes regenerates the §3.4.2 load-time comparison.
func BenchmarkYCSBLoadTimes(b *testing.B) {
	sc := ycsbBenchScale()
	for i := 0; i < b.N; i++ {
		times := core.RunLoadTimes(sc)
		for system, d := range times {
			b.ReportMetric(d.Seconds(), system+"-load-sec")
		}
	}
}

// BenchmarkAblationCostBasedOptimizer contrasts PDW's cost-based join
// strategies against forced shuffle-both joins (Hive-like literal
// execution) on Q19.
func BenchmarkAblationCostBasedOptimizer(b *testing.B) {
	db := tpch.Generate(tpch.GenConfig{SF: 0.002, Seed: 1, Random64: true})
	run := func(force bool) sim.Duration {
		s := sim.New()
		cl := cluster.New(s, cluster.Default16())
		cfg := pdw.DefaultConfig()
		cfg.ForceShuffleJoins = force
		w := pdw.New(s, cl, db, 1000, cfg)
		var total sim.Duration
		s.Spawn("driver", func(p *sim.Proc) { total = w.RunQuery(p, 19).Total })
		s.Run()
		return total
	}
	for i := 0; i < b.N; i++ {
		smart := run(false)
		forced := run(true)
		b.ReportMetric(smart.Seconds(), "cost-based-sec")
		b.ReportMetric(forced.Seconds(), "forced-shuffle-sec")
		b.ReportMetric(float64(forced)/float64(smart), "optimizer-gain")
	}
}

// BenchmarkAblationIsolationLevel reproduces §3.4.3: Workload A under
// READ COMMITTED vs READ UNCOMMITTED on SQL-CS.
func BenchmarkAblationIsolationLevel(b *testing.B) {
	sc := ycsbBenchScale()
	for i := 0; i < b.N; i++ {
		rc := core.RunPointIsolation(ycsb.WorkloadA, 0, sc, sqleng.ReadCommitted)
		ru := core.RunPointIsolation(ycsb.WorkloadA, 0, sc, sqleng.ReadUncommitted)
		b.ReportMetric(rc.Latency[ycsb.OpRead].Mean, "read-committed-ms")
		b.ReportMetric(ru.Latency[ycsb.OpRead].Mean, "read-uncommitted-ms")
	}
}

// BenchmarkAblationMapJoinLimit contrasts Hive with map joins enabled
// vs disabled (everything becomes a common join) on Q5.
func BenchmarkAblationMapJoinLimit(b *testing.B) {
	db := tpch.Generate(tpch.GenConfig{SF: 0.002, Seed: 1, Random64: true})
	run := func(limit int64) sim.Duration {
		s := sim.New()
		cl := cluster.New(s, cluster.Default16())
		cfg := hive.DefaultConfig()
		cfg.MapJoinBuildLimit = limit
		w := hive.New(s, cl, db, 1000, cfg)
		var total sim.Duration
		s.Spawn("driver", func(p *sim.Proc) { total = w.RunQuery(p, 5).Total })
		s.Run()
		return total
	}
	for i := 0; i < b.N; i++ {
		with := run(700 << 20)
		without := run(1)
		b.ReportMetric(with.Seconds(), "mapjoin-sec")
		b.ReportMetric(without.Seconds(), "common-only-sec")
	}
}

// BenchmarkAblationRCFileVsText contrasts Hive's compressed RCFile
// storage with uncompressed text (larger scans, no decompression CPU
// modeled separately — the paper's storage-format discussion).
func BenchmarkAblationRCFileVsText(b *testing.B) {
	db := tpch.Generate(tpch.GenConfig{SF: 0.002, Seed: 1, Random64: true})
	run := func(ratio float64, mapMBps float64) sim.Duration {
		s := sim.New()
		cl := cluster.New(s, cluster.Default16())
		cfg := hive.DefaultConfig()
		cfg.RCFileRatio = ratio
		cfg.MR.MapMBps = mapMBps
		w := hive.New(s, cl, db, 1000, cfg)
		var total sim.Duration
		s.Spawn("driver", func(p *sim.Proc) { total = w.RunQuery(p, 1).Total })
		s.Run()
		return total
	}
	for i := 0; i < b.N; i++ {
		rc := run(0.115, 2.0) // compressed, CPU-bound decode
		text := run(1.0, 20)  // 8.7× more bytes, cheap decode
		b.ReportMetric(rc.Seconds(), "rcfile-sec")
		b.ReportMetric(text.Seconds(), "text-sec")
	}
}

// BenchmarkAblationMongodsPerNode varies the number of mongod processes
// per node (1 vs 8): more processes means finer-grained global write
// locks, the paper's reason for running 16 per node.
func BenchmarkAblationMongodsPerNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, per := range []int{1, 8} {
			sc := ycsbBenchScale()
			sc.MongodsPerNode = per
			res := core.RunPoint(core.SystemMongoCS, ycsb.WorkloadA, 0, sc)
			b.ReportMetric(res.Throughput, map[int]string{1: "1-mongod-ops", 8: "8-mongod-ops"}[per])
		}
	}
}

// BenchmarkDbgen measures the generator itself (host time).
func BenchmarkDbgen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := tpch.Generate(tpch.GenConfig{SF: 0.002, Seed: int64(i), Random64: true})
		if db.Lineitem.NumRows() == 0 {
			b.Fatal("no lineitem rows")
		}
	}
}

// BenchmarkQueryExecution measures the functional query layer (host
// time for all 22 queries).
func BenchmarkQueryExecution(b *testing.B) {
	db := tpch.Generate(tpch.GenConfig{SF: 0.002, Seed: 1, Random64: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range tpch.Queries {
			tpch.RunQuery(q.ID, db)
		}
	}
}

// BenchmarkTPCHQuery measures each of the 22 queries individually on the
// in-memory relal executor (host time and allocations).
func BenchmarkTPCHQuery(b *testing.B) {
	db := tpch.Generate(tpch.GenConfig{SF: 0.005, Seed: 1, Random64: true})
	for _, q := range tpch.Queries {
		b.Run(fmt.Sprintf("Q%d", q.ID), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tpch.RunQuery(q.ID, db)
			}
		})
	}
}
