package tpch

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"elephants/internal/rcfile"
	"elephants/internal/relal"
)

// attachRCFile swaps every base-table source of db for a real RCFile
// encoding with the given row-group size.
func attachRCFile(t testing.TB, db *DB, groupRows int) {
	t.Helper()
	for _, name := range TableNames {
		src, err := rcfile.NewSource(db.Table(name), groupRows)
		if err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
		db.SetSource(name, src)
	}
}

// rcfileDB generates a functional DB and swaps every base-table source
// for a real RCFile encoding with the given row-group size, so query
// scans exercise column pruning and zone-map group pruning for real.
func rcfileDB(t testing.TB, sf float64, groupRows int) *DB {
	t.Helper()
	db := Generate(GenConfig{SF: sf, Seed: 1, Random64: true})
	attachRCFile(t, db, groupRows)
	return db
}

// TestAllQueriesMatchGoldenOverRCFile is the end-to-end proof of the
// pushdown refactor: all 22 queries, scanning through RCFile-backed
// sources (subset columns decompressed, groups zone-pruned), must
// reproduce the committed golden snapshot byte-for-byte. The small
// row-group size forces multi-group files so pruning decisions really
// happen.
func TestAllQueriesMatchGoldenOverRCFile(t *testing.T) {
	want, err := os.ReadFile("testdata/tpch_golden.txt")
	if err != nil {
		t.Skip("golden file missing")
	}
	db := rcfileDB(t, goldenSF, 1024)
	diffGolden(t, goldenSnapshotOf(db), string(want))
}

// TestRCFileParallelMatchesGolden combines both halves of the scan
// pipeline: RCFile-backed pushdown scans and a multi-worker morsel
// pool.
func TestRCFileParallelMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tpch_golden.txt")
	if err != nil {
		t.Skip("golden file missing")
	}
	db := rcfileDB(t, goldenSF, 1024)
	old := DefaultWorkers
	DefaultWorkers = 4
	defer func() { DefaultWorkers = old }()
	diffGolden(t, goldenSnapshotOf(db), string(want))
}

// exactSource is the strictest Source the contract allows: it returns
// only the rows that satisfy every pushed condition, as a dist shard
// does.
type exactSource struct{ *relal.TableSource }

func (s exactSource) ScanTable(cols []string, pred relal.ZonePredicate) (*relal.Table, relal.ScanStats) {
	t, stats := s.TableSource.ScanTable(cols, pred)
	return (&relal.Exec{Parallelism: 1}).Where(t, pred.On(t)...), stats
}

// TestPredExactSourceGolden: every query applies every condition it
// pushes into a scan, so sources that drop exactly the failing rows
// still reproduce the golden snapshot byte for byte, serial and pooled.
func TestPredExactSourceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tpch_golden.txt")
	if err != nil {
		t.Skip("golden file missing")
	}
	db := Generate(GenConfig{SF: goldenSF, Seed: 1, Random64: true})
	for _, name := range TableNames {
		db.SetSource(name, exactSource{relal.NewTableSource(db.Table(name))})
	}
	for _, workers := range []int{1, DefaultWorkers} {
		var b strings.Builder
		for _, q := range Queries {
			out, _ := RunQueryWorkers(q.ID, db, workers)
			b.WriteString(FormatAnswer(q.ID, out))
		}
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			diffGolden(t, b.String(), string(want))
		})
	}
}

// shipdateSorted generates the seed-1 DB at sf with lineitem rewritten
// in stable l_shipdate order: the layout under which zone maps prune
// date ranges and the date column's chunks collapse to gdict+rle runs.
func shipdateSorted(sf float64) *DB {
	db := Generate(GenConfig{SF: sf, Seed: 1, Random64: true})
	db.Lineitem = (&relal.Exec{}).Sort(db.Lineitem, relal.OrderSpec{Col: "l_shipdate"}).Compacted()
	db.Lineitem.Name = "lineitem"
	return db
}

// lineitemScanStats sums the scan-step byte accounting for lineitem in
// one query's log.
func lineitemScanStats(log relal.StepLog) (read, skipped int64) {
	for _, s := range log.Steps {
		if s.Kind == relal.StepScan && s.Table == "lineitem" {
			read += s.ScanBytesRead
			skipped += s.ScanBytesSkipped
		}
	}
	return read, skipped
}

// TestQ6DecompressesUnderHalfTheFile checks the paper-motivated
// acceptance bound: Q6 references 4 of lineitem's 16 columns and pushes
// a shipdate/discount/quantity predicate, so an RCFile-backed scan must
// decompress well under half of the file's chunk bytes.
func TestQ6DecompressesUnderHalfTheFile(t *testing.T) {
	db := rcfileDB(t, 0.005, 2048)
	_, log := RunQuery(6, db)
	read, skipped := lineitemScanStats(log)
	if read == 0 || skipped == 0 {
		t.Fatalf("scan stats not populated: read=%d skipped=%d", read, skipped)
	}
	frac := float64(read) / float64(read+skipped)
	if frac >= 0.5 {
		t.Errorf("Q6 decompressed %.1f%% of lineitem bytes, want < 50%%", 100*frac)
	}
	t.Logf("Q6 decompressed %.1f%% of lineitem chunk bytes (read %d, skipped %d)", 100*frac, read, skipped)
}

// TestInMemoryScanStatsModelPushdown checks the in-memory TableSource
// reports the modeled skipped-bytes ratio (the functional table itself
// stays whole, so operator cardinalities — and the engines' cost
// replays — are unchanged).
func TestInMemoryScanStatsModelPushdown(t *testing.T) {
	db := Generate(GenConfig{SF: 0.005, Seed: 1, Random64: true})
	out, log := RunQuery(6, db)
	if out.NumRows() != 1 {
		t.Fatalf("Q6 rows = %d", out.NumRows())
	}
	read, skipped := lineitemScanStats(log)
	if read == 0 || skipped == 0 {
		t.Fatalf("in-memory scan stats not populated: read=%d skipped=%d", read, skipped)
	}
	if frac := float64(read) / float64(read+skipped); frac >= 0.5 {
		t.Errorf("modeled Q6 read fraction %.2f, want < 0.5 (4 of 16 columns)", frac)
	}
	// The full scan view must still be whole: Q6's filter input equals
	// lineitem's row count.
	for _, s := range log.Steps {
		if s.Kind == relal.StepScan && s.Table == "lineitem" {
			if s.OutRows != db.Lineitem.NumRows() {
				t.Errorf("in-memory scan pruned rows (%d of %d): cost replay would drift",
					s.OutRows, db.Lineitem.NumRows())
			}
		}
	}
}

// TestZonePruningFiresOnSortedData: zone maps can only prune groups
// whose min/max exclude the predicate; TPC-H dates are uniform within
// lineitem, so build a shipdate-sorted copy and check groups really
// drop.
func TestZonePruningFiresOnSortedData(t *testing.T) {
	src, err := rcfile.NewSource(shipdateSorted(0.005).Lineitem, 2048)
	if err != nil {
		t.Fatal(err)
	}
	_, stats := src.ScanTable([]string{"l_extendedprice"},
		relal.ZonePredicate{relal.StrBetween("l_shipdate", "1994-01-01", "1995-01-01")})
	if stats.GroupsSkipped == 0 {
		t.Error("no groups pruned on shipdate-sorted lineitem with a one-year predicate")
	}
	if stats.GroupsRead == 0 {
		t.Error("pruning dropped every group; the 1994 slice must survive")
	}
	t.Logf("sorted lineitem: %d groups read, %d pruned, %.1f%% bytes skipped",
		stats.GroupsRead, stats.GroupsSkipped, 100*float64(stats.BytesSkipped)/float64(stats.BytesRead+stats.BytesSkipped))
}

// TestClusteredLineitemBoostsQ6ZoneSkip extends the sorted-data zone
// pruning proof to a whole query: with lineitem rewritten in l_shipdate
// order (shipdateSorted), Q6's one-year range predicate prunes most row
// groups, so the
// RCFile-backed scan decompresses a small fraction of the file where
// the unclustered layout reads ~a quarter of it — and the answer stays
// the same rows.
func TestClusteredLineitemBoostsQ6ZoneSkip(t *testing.T) {
	readFrac := func(db *DB) (float64, float64) {
		out, log := RunQuery(6, db)
		if out.NumRows() != 1 {
			t.Fatalf("Q6 rows = %d", out.NumRows())
		}
		read, skipped := lineitemScanStats(log)
		if read == 0 || skipped == 0 {
			t.Fatalf("scan stats not populated: read=%d skipped=%d", read, skipped)
		}
		return float64(read) / float64(read+skipped), out.FloatCol("revenue").Get(0)
	}
	plain := rcfileDB(t, 0.005, 2048)
	pfrac, prev := readFrac(plain)

	clustered := shipdateSorted(0.005)
	attachRCFile(t, clustered, 2048)
	cfrac, crev := readFrac(clustered)

	if cfrac >= 0.10 {
		t.Errorf("clustered Q6 decompressed %.1f%% of lineitem bytes, want < 10%%", 100*cfrac)
	}
	if cfrac >= pfrac/2 {
		t.Errorf("clustering should at least halve Q6's read fraction: %.3f (clustered) vs %.3f", cfrac, pfrac)
	}
	// Same rows, same sum up to accumulation-order rounding.
	if diff := (crev - prev) / prev; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("clustered Q6 revenue drifts: %v vs %v", crev, prev)
	}
	t.Logf("Q6 lineitem read fraction: %.1f%% unclustered -> %.1f%% clustered", 100*pfrac, 100*cfrac)
}

// TestRunQueryWorkersMatchesSerial locks RunQueryWorkers to the serial
// result for a representative query mix at several pool sizes, and to
// its panic on an id outside 1..22.
func TestRunQueryWorkersMatchesSerial(t *testing.T) {
	db := Generate(GenConfig{SF: 0.005, Seed: 1, Random64: true})
	for _, id := range []int{0, 23} {
		func() {
			defer func() {
				if r := recover(); r != "tpch: unknown query" {
					t.Errorf("Q%d: panic %v, want \"tpch: unknown query\"", id, r)
				}
			}()
			RunQueryWorkers(id, db, 1)
		}()
	}
	for _, id := range []int{1, 6, 13, 18, 21} {
		ref, _ := RunQueryWorkers(id, db, 1)
		want := FormatAnswer(id, ref)
		for _, workers := range []int{2, 3, 8} {
			out, _ := RunQueryWorkers(id, db, workers)
			if got := FormatAnswer(id, out); got != want {
				t.Errorf("Q%d answer drifts at workers=%d", id, workers)
			}
		}
	}
}
