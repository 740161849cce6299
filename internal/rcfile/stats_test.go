package rcfile

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"elephants/internal/relal"
)

// TestSourceStatsConcurrent is the regression test for the shared-Source
// accounting: many goroutines (two query streams' worth and more)
// scanning one rcfile.Source must accumulate lifetime stats that equal
// exactly scans × per-scan stats. Before the ScanCounter the totals
// would have needed a plain struct add, which loses updates under
// concurrency; run with -race to keep it honest.
func TestSourceStatsConcurrent(t *testing.T) {
	rows := 4 * relal.DefaultScanGroupRows / 16 // 4 groups at groupRows below
	groupRows := rows / 4
	keys := make([]int64, rows)
	vals := make([]string, rows)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = fmt.Sprintf("v%08d", i)
	}
	tb := relal.NewTable("t", relal.Schema{
		{Name: "k", Type: relal.Int},
		{Name: "v", Type: relal.Str},
	}, relal.IntsV(keys), relal.StrsV(vals))
	src, err := NewSource(tb, groupRows)
	if err != nil {
		t.Fatal(err)
	}

	// One scan's stats: column subset plus a zone predicate that prunes
	// some groups, so every counter field is non-zero.
	pred := relal.ZonePredicate{relal.IntBetween("k", math.MinInt64, int64(rows/2))}
	_, once := src.ScanTable([]string{"k"}, pred)
	if once.BytesRead == 0 || once.BytesSkipped == 0 || once.GroupsSkipped == 0 {
		t.Fatalf("degenerate per-scan stats: %+v", once)
	}
	base := src.TotalStats() // the probe scan above is already counted

	const goroutines = 8
	const scansPer = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scansPer; i++ {
				if _, s := src.ScanTable([]string{"k"}, pred); s != once {
					panic("per-scan stats drifted")
				}
			}
		}()
	}
	wg.Wait()

	got := src.TotalStats()
	want := base
	for i := 0; i < goroutines*scansPer; i++ {
		want.Add(once)
	}
	if got != want {
		t.Fatalf("concurrent accumulation lost updates:\n got %+v\nwant %+v", got, want)
	}
}

// TestTableSourceStatsConcurrent covers the in-memory TableSource's
// counter the same way (both backends serve concurrent streams).
func TestTableSourceStatsConcurrent(t *testing.T) {
	rows := 6 * 512
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i)
	}
	tb := relal.NewTable("t", relal.Schema{{Name: "k", Type: relal.Int}}, relal.IntsV(keys))
	src := &relal.TableSource{T: tb, GroupRows: 512}
	pred := relal.ZonePredicate{relal.IntBetween("k", math.MinInt64, int64(rows/3))}
	_, once := src.ScanTable([]string{"k"}, pred)
	base := src.TotalStats()

	const goroutines = 8
	const scansPer = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scansPer; i++ {
				src.ScanTable([]string{"k"}, pred)
			}
		}()
	}
	wg.Wait()

	got := src.TotalStats()
	want := base
	for i := 0; i < goroutines*scansPer; i++ {
		want.Add(once)
	}
	if got != want {
		t.Fatalf("concurrent accumulation lost updates:\n got %+v\nwant %+v", got, want)
	}
}
