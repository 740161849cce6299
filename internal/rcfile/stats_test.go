package rcfile

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"elephants/internal/relal"
)

// scanConcurrently runs goroutines × scansPer scans of src at once and
// returns every result, so the caller can compare them on the test
// goroutine.
func scanConcurrently(src relal.Source, goroutines, scansPer int, cols []string, pred relal.ZonePredicate) ([]*relal.Table, []relal.ScanStats) {
	tables := make([]*relal.Table, goroutines*scansPer)
	stats := make([]relal.ScanStats, goroutines*scansPer)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * scansPer; i < (g+1)*scansPer; i++ {
				tables[i], stats[i] = src.ScanTable(cols, pred)
			}
		}(g)
	}
	wg.Wait()
	return tables, stats
}

// TestSourceStatsConcurrent: many goroutines (two query streams' worth
// and more) scanning one rcfile.Source must each get the rows and the
// ScanStats a lone scan gets — the per-scan accounting the step log
// records is private to each scan. Run with -race to keep it honest.
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
	want, once := src.ScanTable([]string{"k"}, pred)
	if once.BytesRead == 0 || once.BytesSkipped == 0 || once.GroupsSkipped == 0 {
		t.Fatalf("degenerate per-scan stats: %+v", once)
	}
	tables, stats := scanConcurrently(src, 8, 50, []string{"k"}, pred)
	for i := range tables {
		if stats[i] != once || !slices.Equal(tables[i].Cols[0].Ints, want.Cols[0].Ints) {
			t.Fatalf("concurrent scan %d drifted: stats %+v, want %+v", i, stats[i], once)
		}
	}
}

// TestTableSourceStatsConcurrent covers the in-memory TableSource the
// same way (both backends serve concurrent streams): every scan returns
// the source's own table and the same modeled stats, all drawn from the
// table's memoized scan info.
func TestTableSourceStatsConcurrent(t *testing.T) {
	rows := 6 * relal.DefaultScanGroupRows
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i)
	}
	tb := relal.NewTable("t", relal.Schema{{Name: "k", Type: relal.Int}}, relal.IntsV(keys))
	src := relal.NewTableSource(tb)
	pred := relal.ZonePredicate{relal.IntBetween("k", math.MinInt64, int64(rows/3))}
	_, once := src.ScanTable([]string{"k"}, pred)
	if once.GroupsSkipped == 0 {
		t.Fatalf("degenerate per-scan stats: %+v", once)
	}
	tables, stats := scanConcurrently(src, 8, 50, []string{"k"}, pred)
	for i := range tables {
		if stats[i] != once || tables[i] != tb {
			t.Fatalf("concurrent scan %d drifted: stats %+v, want %+v", i, stats[i], once)
		}
	}
}
