package relal

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// shrinkSortMorsels drops the top-K morsel size so the per-morsel heaps
// and their concatenation engage on test-sized tables; restored on
// cleanup.
func shrinkSortMorsels(t testing.TB, rows int) {
	t.Helper()
	old := sortMorselRows
	sortMorselRows = rows
	t.Cleanup(func() { sortMorselRows = old })
}

// sortCase builds one randomized multi-key table. Keys are drawn from
// [0, card) so low cardinalities force duplicate keys (the stability
// proof: equal keys must keep their original order); sentinel plants
// NaN/MinInt64/""/signed-zero values in the key columns.
type sortCase struct {
	name     string
	rows     int
	card     int64
	kinds    []Type // one key column per entry
	sentinel bool
	view     bool // sort through a filtered view
}

// table returns the case's table: the key columns, a float payload, and
// a "pos" column holding each row's original ordinal — rendering pos
// after the sort captures the full output permutation, so two renders
// match iff the permutations are byte-identical (not just the keys).
func (c sortCase) table(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	sch := Schema{}
	cols := []*Vector{}
	for k, kind := range c.kinds {
		sch = append(sch, Column{Name: fmt.Sprintf("k%d", k), Type: kind})
		switch kind {
		case Int:
			xs := make([]int64, c.rows)
			for i := range xs {
				xs[i] = rng.Int63n(c.card)
				if c.sentinel && rng.Intn(16) == 0 {
					xs[i] = math.MinInt64
				}
			}
			cols = append(cols, IntsV(xs))
		case Float:
			xs := make([]float64, c.rows)
			for i := range xs {
				xs[i] = float64(rng.Int63n(c.card)) / 2
				if c.sentinel {
					switch rng.Intn(16) {
					case 0:
						xs[i] = math.NaN()
					case 1:
						xs[i] = math.Copysign(0, -1)
					case 2:
						xs[i] = 0
					}
				}
			}
			cols = append(cols, FloatsV(xs))
		default:
			xs := make([]string, c.rows)
			for i := range xs {
				xs[i] = fmt.Sprintf("k%04d", rng.Int63n(c.card))
				if c.sentinel && rng.Intn(16) == 0 {
					xs[i] = ""
				}
			}
			cols = append(cols, StrsV(xs))
		}
	}
	sch = append(sch, Column{Name: "pos", Type: Int})
	pos := make([]int64, c.rows)
	for i := range pos {
		pos[i] = int64(i)
	}
	cols = append(cols, IntsV(pos))
	return NewTable("s", sch, cols...)
}

func (c sortCase) keys() []OrderSpec {
	specs := make([]OrderSpec, len(c.kinds))
	for k := range c.kinds {
		// Alternate directions so descending comparators are covered.
		specs[k] = OrderSpec{Col: fmt.Sprintf("k%d", k), Desc: k%2 == 1}
	}
	return specs
}

// sortView filters the case table to roughly half its rows so the sort
// kernels also run over selection vectors.
func sortView(t *Table) *Table {
	pos := t.IntCol("pos")
	return (&Exec{Parallelism: 1}).Filter(t, func(i int) bool { return pos.Get(i)%2 == 0 })
}

// oracleSort is the naive reference for Sort: an insertion sort over
// boxed rows that moves a row ahead of its predecessor only when it is
// strictly less, so ties keep input order. The comparator is written
// here: Int by value, Float with NaN before every number and tied with
// itself (-0 ties with 0), Str by bytes, Desc reversing one key. It
// shares no code with the kernel in sort.go.
func oracleSort(sch Schema, rows []Row, keys []OrderSpec) []Row {
	cell := func(a, b interface{}) int {
		switch x := a.(type) {
		case int64:
			switch y := b.(int64); {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		case float64:
			switch y := b.(float64); {
			case math.IsNaN(x) && math.IsNaN(y):
				return 0
			case math.IsNaN(x) || x < y:
				return -1
			case math.IsNaN(y) || x > y:
				return 1
			}
			return 0
		}
		return strings.Compare(a.(string), b.(string))
	}
	less := func(a, b Row) bool {
		for _, k := range keys {
			c := sch.Col(k.Col)
			r := cell(a[c], b[c])
			if k.Desc {
				r = -r
			}
			if r != 0 {
				return r < 0
			}
		}
		return false
	}
	out := append([]Row{}, rows...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestSortParallelDifferential holds Sort and the fused TopK to the
// naive oracle at every worker count, one included: for randomized
// multi-key tables — duplicate keys, NULL-ish sentinels, view inputs,
// empty tables — Sort must emit the oracle's rows in the oracle's order
// (the pos column makes the permutation visible), and TopK its first k
// for k at and around every boundary, with the morsel size shrunk so
// every TopK merges several heaps.
func TestSortParallelDifferential(t *testing.T) {
	shrinkSortMorsels(t, 16)
	cases := []sortCase{
		{name: "int-dups", rows: 500, card: 12, kinds: []Type{Int}},
		{name: "int-high-card", rows: 400, card: 1 << 40, kinds: []Type{Int}},
		{name: "int-sentinels", rows: 300, card: 9, kinds: []Type{Int}, sentinel: true},
		{name: "float-dups", rows: 350, card: 10, kinds: []Type{Float}},
		{name: "float-nan-signed-zero", rows: 320, card: 8, kinds: []Type{Float}, sentinel: true},
		{name: "str-dups", rows: 300, card: 11, kinds: []Type{Str}},
		{name: "str-empty-sentinel", rows: 280, card: 9, kinds: []Type{Str}, sentinel: true},
		{name: "multi-key", rows: 450, card: 6, kinds: []Type{Str, Float, Int}},
		{name: "multi-key-sentinels", rows: 400, card: 5, kinds: []Type{Int, Float, Str}, sentinel: true},
		{name: "view-input", rows: 500, card: 10, kinds: []Type{Int, Str}, view: true},
		{name: "single-row", rows: 1, card: 3, kinds: []Type{Int}},
		{name: "empty", rows: 0, card: 3, kinds: []Type{Int}},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := c.table(int64(2000 + ci))
			if c.view {
				in = sortView(in)
			}
			keys := c.keys()
			want := oracleSort(in.Schema, RowsOf(in), keys)
			n := in.NumRows()
			for _, workers := range diffWorkers() {
				e := &Exec{Parallelism: workers}
				if err := sameRows(RowsOf(e.Sort(in, keys...)), want); err != nil {
					t.Fatalf("workers=%d Sort: %v", workers, err)
				}
				for _, k := range []int{0, 1, n / 3, n, n + 10} {
					if err := sameRows(RowsOf(e.TopK(in, k, keys...)), want[:min(k, n)]); err != nil {
						t.Fatalf("workers=%d TopK(k=%d): %v", workers, k, err)
					}
				}
			}
		})
	}
}

// TestSortParallelLargeMorsels runs one config at the production morsel
// size with an input big enough to cross it, so TopK's per-morsel heaps
// are exercised at the default size too (the differential suite shrinks
// the size). Limit-after-Sort is the reference: the input is too big for
// the insertion-sort oracle.
func TestSortParallelLargeMorsels(t *testing.T) {
	c := sortCase{rows: 3*MorselRows + 500, card: 1000, kinds: []Type{Int, Float}}
	in := c.table(7)
	keys := c.keys()
	serial := &Exec{Parallelism: 1}
	wantSort := render(serial.Sort(in, keys...))
	wantTop := render(serial.Limit(serial.Sort(in, keys...), 100))
	for _, workers := range []int{2, 5} {
		e := &Exec{Parallelism: workers}
		if got := render(e.Sort(in, keys...)); got != wantSort {
			t.Fatalf("workers=%d large sort drifts", workers)
		}
		if got := render(e.TopK(in, 100, keys...)); got != wantTop {
			t.Fatalf("workers=%d large TopK drifts", workers)
		}
	}
}

// TestTopKLargeKAllocation: a morsel's heap holds at most the morsel's
// own rows, so TopK with k just under n allocates a few index vectors —
// the heaps, their concatenation, the output — not one k-slot heap per
// morsel (16 heaps of n-1 slots here, about 18 × 4n bytes).
func TestTopKLargeKAllocation(t *testing.T) {
	n := 16 * MorselRows
	c := sortCase{rows: n, card: 1000, kinds: []Type{Int}}
	in := c.table(41)
	keys := c.keys()
	e := &Exec{Parallelism: 2}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := e.TopK(in, n-1, keys...)
	runtime.ReadMemStats(&after)
	if out.NumRows() != n-1 {
		t.Fatalf("TopK kept %d rows, want %d", out.NumRows(), n-1)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(6*4*n); got > limit {
		t.Errorf("TopK(k=n-1) over %d rows allocated %d bytes, want at most %d (6 index vectors)", n, got, limit)
	}
}

// TestTopKStepLogMatchesSortLimit checks the fused operator logs the
// exact Sort+Limit step pair the unfused path produces — the Hive/PDW
// cost replays consume these steps, so fusion must not move a byte.
func TestTopKStepLogMatchesSortLimit(t *testing.T) {
	shrinkSortMorsels(t, 16)
	c := sortCase{rows: 400, card: 15, kinds: []Type{Float, Int}}
	in := c.table(11)
	keys := c.keys()
	for _, k := range []int{0, 10, 400, 500} {
		serial := &Exec{Parallelism: 1}
		serial.Limit(serial.Sort(in, keys...), k)
		want := serial.Log.Steps
		for _, workers := range diffWorkers() {
			e := &Exec{Parallelism: workers}
			e.TopK(in, k, keys...)
			got := e.Log.Steps
			if len(got) != len(want) {
				t.Fatalf("k=%d workers=%d: %d steps, want %d", k, workers, len(got), len(want))
			}
			for s := range want {
				if got[s] != want[s] {
					t.Fatalf("k=%d workers=%d step %d drifts:\n got %+v\nwant %+v",
						k, workers, s, got[s], want[s])
				}
			}
		}
	}
}

// TestLimitLogsTruncatedWidth: the limit step's OutWidth must come from
// the truncated view (its own k rows), not the input's average — the
// rows a limit keeps can be systematically wider or narrower than the
// table it truncates.
func TestLimitLogsTruncatedWidth(t *testing.T) {
	tb := NewTable("w", Schema{{Name: "s", Type: Str}},
		StrsV([]string{"aaaaaaaaa", "b", "c", "d"})) // 10,2,2,2 encoded bytes
	e := &Exec{}
	out := e.Limit(tb, 1)
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	st := e.Log.Steps[len(e.Log.Steps)-1]
	if st.Kind != StepLimit {
		t.Fatalf("last step = %v, want limit", st.Kind)
	}
	if st.OutRows != 1 || st.OutWidth != 10 {
		t.Errorf("limit step out = %d rows × %d B, want 1 × 10 (truncated view width)", st.OutRows, st.OutWidth)
	}
	if st.LeftRows != 4 || st.LeftWidth != tb.AvgRowBytes() {
		t.Errorf("limit step in = %d rows × %d B, want 4 × %d", st.LeftRows, st.LeftWidth, tb.AvgRowBytes())
	}
}

// TestLimitSharedTableRace is the shared-table audit for the
// dense-input sel synthesis: many goroutines limiting (and reading
// through) one shared dense table concurrently must not write the
// table's state. Run under -race (the CI race job does), any unsafe
// write to the shared header or vectors is flagged.
func TestLimitSharedTableRace(t *testing.T) {
	c := sortCase{rows: 2000, card: 50, kinds: []Type{Int}}
	in := c.table(23)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := &Exec{Parallelism: 1}
			for r := 0; r < 20; r++ {
				out := e.Limit(in, 10+g)
				pos := out.IntCol("pos")
				for i := 0; i < out.NumRows(); i++ {
					if pos.Get(i) != int64(i) {
						t.Errorf("limit view row %d = %d (dense prefix expected)", i, pos.Get(i))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if in.NumRows() != 2000 {
		t.Fatalf("shared table mutated: %d rows", in.NumRows())
	}
}

// BenchmarkTopKVsSortLimit quantifies the fusion win: bounded-heap
// selection of 100 rows vs a full sort of the same input.
func BenchmarkTopKVsSortLimit(b *testing.B) {
	c := sortCase{rows: 24 * MorselRows / 4, card: 10000, kinds: []Type{Int, Float}}
	in := c.table(37)
	keys := c.keys()
	b.Run("topk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := &Exec{Parallelism: 1}
			if out := e.TopK(in, 100, keys...); out.NumRows() != 100 {
				b.Fatal("bad topk output")
			}
		}
	})
	b.Run("sort-limit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := &Exec{Parallelism: 1}
			if out := e.Limit(e.Sort(in, keys...), 100); out.NumRows() != 100 {
				b.Fatal("bad sort+limit output")
			}
		}
	})
}
