package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"elephants/internal/sqleng"
	"elephants/internal/ycsb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper_tables_golden.txt from the current models")

// smallTPCH runs a reduced TPC-H comparison (two SFs, subset of
// queries) to keep the test fast.
func smallTPCH(t *testing.T, queries []int) TPCHResult {
	t.Helper()
	return RunTPCH(TPCHConfig{
		LaptopSF:     0.002,
		ScaleFactors: []float64{250, 1000},
		Queries:      queries,
		Seed:         1,
	})
}

func TestPDWFasterThanHiveEverywhere(t *testing.T) {
	res := smallTPCH(t, []int{1, 5, 6, 19})
	for i := range res.Config.ScaleFactors {
		for _, id := range res.Config.Queries {
			h := res.Hive[i].QueryTimes[id]
			p := res.PDW[i].QueryTimes[id]
			if p >= h {
				t.Errorf("SF %g Q%d: PDW (%v) not faster than Hive (%v)",
					res.Config.ScaleFactors[i], id, p, h)
			}
		}
	}
}

func TestSpeedupShrinksWithScale(t *testing.T) {
	// The paper: average speedup is greatest at the smallest SF
	// (34.1× at 250 GB vs 9× at 16 TB).
	res := smallTPCH(t, []int{1, 5, 6, 19})
	amH0, _ := res.Hive[0].Means()
	amP0, _ := res.PDW[0].Means()
	amH1, _ := res.Hive[1].Means()
	amP1, _ := res.PDW[1].Means()
	if amH0/amP0 <= amH1/amP1 {
		t.Errorf("speedup should shrink with scale: %.1fx at SF250 vs %.1fx at SF1000",
			amH0/amP0, amH1/amP1)
	}
}

func TestHiveScalesBetterThanPDW(t *testing.T) {
	res := smallTPCH(t, []int{1, 6})
	for _, id := range res.Config.Queries {
		hr := ratio(res.Hive[1].QueryTimes[id], res.Hive[0].QueryTimes[id])
		pr := ratio(res.PDW[1].QueryTimes[id], res.PDW[0].QueryTimes[id])
		if hr >= pr+0.5 {
			t.Errorf("Q%d: Hive scaling factor %.2f should not exceed PDW's %.2f",
				id, hr, pr)
		}
	}
}

func TestHiveLoadsFasterThanPDW(t *testing.T) {
	// Table 2: Hive loads ~2× faster than PDW at every SF.
	res := smallTPCH(t, []int{1})
	for i := range res.Config.ScaleFactors {
		if res.Hive[i].LoadTime >= res.PDW[i].LoadTime {
			t.Errorf("SF %g: Hive load (%v) should beat PDW load (%v)",
				res.Config.ScaleFactors[i], res.Hive[i].LoadTime, res.PDW[i].LoadTime)
		}
	}
}

func TestTableWritersProduceOutput(t *testing.T) {
	res := smallTPCH(t, []int{1, 22})
	var buf bytes.Buffer
	res.WriteTable2(&buf)
	res.WriteTable3(&buf)
	res.WriteTable4(&buf)
	res.WriteTable5(&buf)
	res.WriteFigure1(&buf)
	out := buf.String()
	for _, want := range []string{"Table 2", "Table 3", "Table 4", "Table 5", "Figure 1", "Sub-query 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestQ22BreakdownPopulated(t *testing.T) {
	res := smallTPCH(t, []int{22})
	bd := res.Hive[0].HiveQ22Breakdown
	for sub := 1; sub <= 4; sub++ {
		if bd[sub] <= 0 {
			t.Errorf("Q22 sub-query %d time = %v, want positive", sub, bd[sub])
		}
	}
	// Sub-query 4 (the failing map join + backup) dominates.
	if bd[4] <= bd[2] {
		t.Errorf("sub-query 4 (%v) should dominate sub-query 2 (%v)", bd[4], bd[2])
	}
}

func tinyScale() YCSBScale {
	sc := DefaultYCSBScale()
	sc.RecordsPerNode = 400
	sc.Clients = 8
	sc.Warmup = 2e9
	sc.Measure = 8e9
	return sc
}

func TestRunPointAllSystems(t *testing.T) {
	for _, system := range Systems {
		res := RunPoint(system, ycsb.WorkloadC, 200, tinyScale())
		if res.Throughput <= 0 {
			t.Errorf("%s: throughput %.1f", system, res.Throughput)
		}
		if res.Errors > 0 {
			t.Errorf("%s: %d errors", system, res.Errors)
		}
	}
}

func TestSQLCSBeatsMongoOnReads(t *testing.T) {
	// Figure 2's shape: unthrottled, SQL-CS achieves higher
	// throughput than both Mongo systems on the read-only workload.
	sc := tinyScale()
	sql := RunPoint(SystemSQLCS, ycsb.WorkloadC, 0, sc)
	mcs := RunPoint(SystemMongoCS, ycsb.WorkloadC, 0, sc)
	if sql.Throughput <= mcs.Throughput {
		t.Errorf("SQL-CS peak (%.0f ops/s) should beat Mongo-CS (%.0f ops/s)",
			sql.Throughput, mcs.Throughput)
	}
}

func TestMongoASWinsScans(t *testing.T) {
	// Figure 6's shape: range partitioning means Mongo-AS scans beat
	// the hash-sharded systems.
	sc := tinyScale()
	mas := RunPoint(SystemMongoAS, ycsb.WorkloadE, 0, sc)
	mcs := RunPoint(SystemMongoCS, ycsb.WorkloadE, 0, sc)
	if mas.Latency[ycsb.OpScan].Mean >= mcs.Latency[ycsb.OpScan].Mean {
		t.Errorf("Mongo-AS scan latency (%.2f ms) should beat Mongo-CS (%.2f ms)",
			mas.Latency[ycsb.OpScan].Mean, mcs.Latency[ycsb.OpScan].Mean)
	}
}

func TestReadUncommittedLowersReadLatency(t *testing.T) {
	// §3.4.3: under Workload A, read-uncommitted reads are faster
	// because they skip row-lock waits.
	sc := tinyScale()
	rc := RunPointIsolation(ycsb.WorkloadA, 0, sc, sqleng.ReadCommitted)
	ru := RunPointIsolation(ycsb.WorkloadA, 0, sc, sqleng.ReadUncommitted)
	if ru.Latency[ycsb.OpRead].Mean > rc.Latency[ycsb.OpRead].Mean*1.1 {
		t.Errorf("read-uncommitted read latency (%.3f ms) should not exceed read-committed (%.3f ms)",
			ru.Latency[ycsb.OpRead].Mean, rc.Latency[ycsb.OpRead].Mean)
	}
}

func TestLoadTimesOrdering(t *testing.T) {
	// §3.4.2: Mongo-CS (45 min) < Mongo-AS (114) < SQL-CS (146).
	sc := tinyScale()
	times := RunLoadTimes(sc)
	if times[SystemMongoCS] >= times[SystemSQLCS] {
		t.Errorf("Mongo-CS load (%v) should beat SQL-CS (%v)",
			times[SystemMongoCS], times[SystemSQLCS])
	}
	if times[SystemMongoAS] <= times[SystemMongoCS] {
		t.Errorf("Mongo-AS load (%v) should exceed Mongo-CS (%v) (mongos hop, config overhead)",
			times[SystemMongoAS], times[SystemMongoCS])
	}
}

func TestMongoASCrashesOnWorkloadDOverload(t *testing.T) {
	sc := tinyScale()
	sc.Clients = 48
	res := RunPoint(SystemMongoAS, ycsb.WorkloadD, 0, sc)
	if !res.Crashed {
		t.Skip("crash threshold not reached at this scale (acceptable; threshold is load-dependent)")
	}
}

func TestWriteCurveOutput(t *testing.T) {
	curves := map[string][]CurvePoint{
		SystemSQLCS: {{Target: 100, Result: RunPoint(SystemSQLCS, ycsb.WorkloadC, 100, tinyScale())}},
	}
	var buf bytes.Buffer
	WriteCurve(&buf, "Figure 2. Workload C", curves, []ycsb.OpKind{ycsb.OpRead})
	if !strings.Contains(buf.String(), "SQL-CS") {
		t.Error("curve output missing system name")
	}
}

// TestPaperTablesGolden pins what `tpchbench -laptop-sf 0.002 -sf
// 250,1000` prints, byte for byte: the Hive and PDW models replay the
// functional executor's StepLog (rows and widths), so any drift in a
// plan's logged steps moves these tables. Worker count must not.
func TestPaperTablesGolden(t *testing.T) {
	const path = "testdata/paper_tables_golden.txt"
	for _, workers := range []int{1, 0} {
		res := RunTPCH(TPCHConfig{LaptopSF: 0.002, ScaleFactors: []float64{250, 1000}, Seed: 1, Workers: workers})
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "TPC-H: Hive vs PDW on a simulated 16-node cluster (functional data at SF %g)\n\n", res.Config.LaptopSF)
		res.WriteTable2(&buf)
		fmt.Fprintln(&buf)
		res.WriteTable3(&buf)
		fmt.Fprintln(&buf)
		res.WriteTable4(&buf)
		fmt.Fprintln(&buf)
		res.WriteTable5(&buf)
		fmt.Fprintln(&buf)
		res.WriteFigure1(&buf)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", path, buf.Len())
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		got, wl := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(wl); i++ {
			if got[i] != wl[i] {
				t.Fatalf("workers=%d: paper tables drift at line %d:\n got: %s\nwant: %s", workers, i+1, got[i], wl[i])
			}
		}
		if len(got) != len(wl) {
			t.Fatalf("workers=%d: paper tables drift: got %d lines, want %d", workers, len(got), len(wl))
		}
	}
}
