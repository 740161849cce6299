package relal

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// bigTable builds a multi-morsel table with groups, float measures, and
// strings, deterministic for a seed.
func bigTable(rows, groups int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, rows)
	vals := make([]float64, rows)
	tags := make([]string, rows)
	for i := 0; i < rows; i++ {
		keys[i] = rng.Int63n(int64(groups))
		vals[i] = rng.Float64()*1000 - 500
		tags[i] = fmt.Sprintf("tag-%03d", rng.Intn(500))
	}
	return NewTable("big", Schema{
		{Name: "g", Type: Int},
		{Name: "v", Type: Float},
		{Name: "s", Type: Str},
	}, IntsV(keys), FloatsV(vals), StrsV(tags))
}

// render dumps a table deterministically for bit-exact comparison
// (floats via %v shortest-exact form, like the golden snapshot).
func render(t *Table) string {
	var b strings.Builder
	for _, r := range RowsOf(t) {
		for _, c := range r {
			fmt.Fprintf(&b, "%v|", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelFilterMatchesSerial: the morsel filter must produce the
// identical selection vector for every worker count, on dense tables
// and on views.
func TestParallelFilterMatchesSerial(t *testing.T) {
	tb := bigTable(3*MorselRows+123, 7, 1)
	v := tb.FloatCol("v")
	pred := func(i int) bool { return v.Get(i) > 0 }
	serial := (&Exec{Parallelism: 1}).Filter(tb, pred)
	want := render(serial)
	for _, workers := range []int{2, 3, 16} {
		e := &Exec{Parallelism: workers}
		if got := render(e.Filter(tb, pred)); got != want {
			t.Fatalf("workers=%d filter drifts", workers)
		}
		// Filter of a view (composed selections).
		g := tb.IntCol("g")
		view1 := e.Filter(tb, func(i int) bool { return g.Get(i)%2 == 0 })
		vv := view1.FloatCol("v")
		sview := (&Exec{Parallelism: 1}).Filter(view1, func(i int) bool { return vv.Get(i) > 0 })
		pview := e.Filter(view1, func(i int) bool { return vv.Get(i) > 0 })
		if render(pview) != render(sview) {
			t.Fatalf("workers=%d view filter drifts", workers)
		}
	}
}

// TestParallelAggregateMatchesSerial: group order, counts, and — the
// hard part — float sum bits must be identical at every worker count.
func TestParallelAggregateMatchesSerial(t *testing.T) {
	aggs := []AggSpec{
		{Fn: "sum", Col: "v", As: "sum_v"},
		{Fn: "avg", Col: "v", As: "avg_v"},
		{Fn: "min", Col: "v", As: "min_v"},
		{Fn: "max", Col: "s", As: "max_s"},
		{Fn: "count", Col: "*", As: "n"},
	}
	for _, rows := range []int{0, 5, MorselRows + 1, 4*MorselRows + 77} {
		tb := bigTable(rows, 13, 2)
		want := render((&Exec{Parallelism: 1}).Aggregate(tb, []string{"g"}, aggs))
		for _, workers := range []int{2, 5, 32} {
			got := render((&Exec{Parallelism: workers}).Aggregate(tb, []string{"g"}, aggs))
			if got != want {
				t.Fatalf("rows=%d workers=%d aggregate drifts", rows, workers)
			}
		}
	}
}

// TestParallelAggregateGlobal: the groupBy=nil path (single group, all
// rows) through the morsel kernel.
func TestParallelAggregateGlobal(t *testing.T) {
	tb := bigTable(2*MorselRows+9, 4, 3)
	aggs := []AggSpec{{Fn: "sum", Col: "v", As: "total"}}
	want := (&Exec{Parallelism: 1}).Aggregate(tb, nil, aggs).FloatCol("total").Get(0)
	for _, workers := range []int{2, 8} {
		got := (&Exec{Parallelism: workers}).Aggregate(tb, nil, aggs).FloatCol("total").Get(0)
		if got != want {
			t.Fatalf("workers=%d global sum %v != %v", workers, got, want)
		}
	}
}

// TestParallelAggregateOverView: morsel aggregation over a filtered
// view must match the serial result (physical rows come through the
// selection vector).
func TestParallelAggregateOverView(t *testing.T) {
	tb := bigTable(3*MorselRows, 9, 4)
	v := tb.FloatCol("v")
	aggs := []AggSpec{{Fn: "sum", Col: "v", As: "sum_v"}, {Fn: "count", Col: "*", As: "n"}}
	es := &Exec{Parallelism: 1}
	want := render(es.Aggregate(es.Filter(tb, func(i int) bool { return v.Get(i) < 100 }), []string{"g"}, aggs))
	for _, workers := range []int{3, 11} {
		ep := &Exec{Parallelism: workers}
		got := render(ep.Aggregate(ep.Filter(tb, func(i int) bool { return v.Get(i) < 100 }), []string{"g"}, aggs))
		if got != want {
			t.Fatalf("workers=%d view aggregate drifts", workers)
		}
	}
}

// TestParallelExtendMatchesSerial: computed columns fill by index, so
// any worker count yields the same vector.
func TestParallelExtendMatchesSerial(t *testing.T) {
	tb := bigTable(2*MorselRows+55, 5, 5)
	v := tb.FloatCol("v")
	fn := func(i int) float64 { return v.Get(i) * 1.0625 }
	want := render((&Exec{Parallelism: 1}).ExtendFloat(tb, "x", fn))
	for _, workers := range []int{2, 6} {
		e := &Exec{Parallelism: workers}
		if got := render(e.ExtendFloat(tb, "x", fn)); got != want {
			t.Fatalf("workers=%d extend drifts", workers)
		}
	}
}

// BenchmarkMorselPipeline is the multi-row-group Filter/Aggregate
// bench: a selective filter feeding a grouped aggregation over a table
// spanning many morsels, at pool size 1 vs GOMAXPROCS.
func BenchmarkMorselPipeline(b *testing.B) {
	tb := bigTable(64*MorselRows, 16, 7)
	v := tb.FloatCol("v")
	aggs := []AggSpec{
		{Fn: "sum", Col: "v", As: "sum_v"},
		{Fn: "avg", Col: "v", As: "avg_v"},
	}
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := &Exec{Parallelism: workers}
			f := e.Filter(tb, func(i int) bool { return v.Get(i) > -250 })
			out := e.Aggregate(f, []string{"g"}, aggs)
			if out.NumRows() != 16 {
				b.Fatal("wrong group count")
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	b.Run("workers=max", func(b *testing.B) { run(b, 0) })
}
