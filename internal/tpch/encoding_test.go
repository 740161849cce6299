package tpch

import (
	"os"
	"testing"

	"elephants/internal/rcfile"
)

// TestEncodingGoldenOverRCFileParallel is the acceptance test for the
// chunk-encoding pipeline: all 22 query answers, scanned through RCF7
// files (every encoding the adaptive writer picks, decoded and
// assembled), must reproduce the committed golden snapshot byte-for-byte at several
// worker counts.
func TestEncodingGoldenOverRCFileParallel(t *testing.T) {
	want, err := os.ReadFile("testdata/tpch_golden.txt")
	if err != nil {
		t.Skip("golden file missing")
	}
	t.Run("enc-on", func(t *testing.T) {
		db := rcfileDB(t, goldenSF, 1024)
		old := DefaultWorkers
		defer func() { DefaultWorkers = old }()
		for _, workers := range []int{1, 3} {
			DefaultWorkers = workers
			diffGolden(t, goldenSnapshotOf(db), string(want))
		}
	})
}

// TestEncodingClusteredAnswersAgree runs the matrix where runs actually
// fire: lineitem sorted on l_shipdate, where the sort column's chunks
// all win gdict+rle and the int keys go delta. Sorting reorders base
// rows, so the committed golden no longer applies — instead the
// in-memory sorted DB at workers = 1 is the reference (the oracle
// bench/check.go uses), and the RCFile-backed snapshot must match it
// bit-for-bit at every worker count, proving the run-length decoder and
// its expansion invisible on the data shape it was built for.
func TestEncodingClusteredAnswersAgree(t *testing.T) {
	snap := func(rcf bool, workers int) string {
		db := shipdateSorted(goldenSF)
		if rcf {
			attachRCFile(t, db, 1024)
		}
		old := DefaultWorkers
		DefaultWorkers = workers
		defer func() { DefaultWorkers = old }()
		return goldenSnapshotOf(db)
	}
	want := snap(false, 1)
	for _, workers := range []int{1, 3} {
		diffGolden(t, snap(true, workers), want)
	}
}

// TestEncodingClusteredChunksUseRuns pins the writer's adaptive choice
// on sorted data: the sort column must come out gdict+rle in every
// chunk and the int keys delta — otherwise the run-length chunk path is
// silently never exercised.
func TestEncodingClusteredChunksUseRuns(t *testing.T) {
	li := shipdateSorted(0.005).Lineitem
	src, err := rcfile.NewSource(li, 2048)
	if err != nil {
		t.Fatal(err)
	}
	stats := src.EncodingStats()
	count := func(col, enc string) int {
		ci := li.Schema.Col(col)
		for e, name := range rcfile.EncNames {
			if name == enc {
				return stats[ci].Chunks[e]
			}
		}
		t.Fatalf("unknown encoding %q", enc)
		return 0
	}
	if n, tot := count("l_shipdate", "gdict+rle"), count("l_shipdate", "gdict+rle")+count("l_shipdate", "gdict")+count("l_shipdate", "plain"); n != tot || n == 0 {
		t.Errorf("clustered l_shipdate: %d of %d chunks gdict+rle", n, tot)
	}
	for _, col := range []string{"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"} {
		if count(col, "delta") == 0 {
			t.Errorf("sorted int key %s has no delta chunks", col)
		}
	}
}
