package relal

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func numbers(n int) *Table {
	ks, vs, gs := make([]int64, n), make([]float64, n), make([]string, n)
	for i := range ks {
		ks[i], vs[i], gs[i] = int64(i), float64(i)*2, fmt.Sprintf("g%d", i%3)
	}
	return NewTable("nums", Schema{
		{Name: "k", Type: Int},
		{Name: "v", Type: Float},
		{Name: "grp", Type: Str},
	}, IntsV(ks), FloatsV(vs), StrsV(gs))
}

// intTable is a one-Int-column table holding xs.
func intTable(name, col string, xs ...int64) *Table {
	return NewTable(name, Schema{{Name: col, Type: Int}}, IntsV(xs))
}

func TestSchemaCol(t *testing.T) {
	s := Schema{{Name: "a", Type: Int}, {Name: "b", Type: Str}}
	if s.Col("b") != 1 {
		t.Error("Col(b) != 1")
	}
	defer func() {
		if recover() == nil {
			t.Error("Col on missing column should panic")
		}
	}()
	s.Col("zz")
}

func TestFilterKeepsBase(t *testing.T) {
	e := &Exec{}
	tb := numbers(10)
	tb.Base = "nums"
	k := tb.IntCol("k")
	f := e.Filter(tb, func(i int) bool { return k.Get(i) >= 5 })
	if f.NumRows() != 5 {
		t.Errorf("filtered rows = %d, want 5", f.NumRows())
	}
	if f.Base != "nums" {
		t.Error("filter must preserve base annotation")
	}
}

func TestProject(t *testing.T) {
	e := &Exec{}
	p := e.Project(numbers(3), "v", "k")
	if len(p.Schema) != 2 || p.Schema[0].Name != "v" {
		t.Errorf("schema = %v", p.Schema.Names())
	}
	if p.FloatCol("v").Get(1) != 2 || p.IntCol("k").Get(1) != 1 {
		t.Errorf("row = %v", RowsOf(p)[1])
	}
}

func TestJoinInner(t *testing.T) {
	e := &Exec{}
	left := NewTable("l", Schema{{Name: "id", Type: Int}, {Name: "x", Type: Str}},
		IntsV([]int64{0, 1, 2, 3}), StrsV([]string{"x0", "x1", "x2", "x3"}))
	right := NewTable("r", Schema{{Name: "rid", Type: Int}, {Name: "y", Type: Str}},
		IntsV([]int64{1, 1, 3}), StrsV([]string{"a", "b", "c"}))
	out := e.Join(left, right, "id", "rid")
	if out.NumRows() != 3 {
		t.Fatalf("join rows = %d, want 3 (1×2 + 3×1)", out.NumRows())
	}
	if out.Base != "" {
		t.Error("join output must lose base annotation")
	}
	// The join step must be logged with cardinalities.
	st := e.Log.Steps[len(e.Log.Steps)-1]
	if st.Kind != StepJoin || st.LeftRows != 4 || st.RightRows != 3 || st.OutRows != 3 {
		t.Errorf("join step = %+v", st)
	}
}

func TestSemiAntiJoinPartition(t *testing.T) {
	e := &Exec{}
	left := numbers(10)
	right := intTable("r", "id", 0, 2, 4, 6, 8)
	semi := e.SemiJoin(left, right, "k", "id")
	anti := e.AntiJoin(left, right, "k", "id")
	if semi.NumRows()+anti.NumRows() != left.NumRows() {
		t.Errorf("semi (%d) + anti (%d) != total (%d)", semi.NumRows(), anti.NumRows(), left.NumRows())
	}
	if semi.NumRows() != 5 {
		t.Errorf("semi rows = %d, want 5", semi.NumRows())
	}
}

func TestSemiAntiJoinDuplicateKeys(t *testing.T) {
	// Duplicate keys on both sides: semi/anti are per-left-row set
	// membership, never multiplied by right-side duplicates.
	e := &Exec{}
	left := intTable("l", "id", 1, 1, 2, 3, 3, 3)
	right := intTable("r", "id", 1, 1, 1, 3)
	semi := e.SemiJoin(left, right, "id", "id")
	anti := e.AntiJoin(left, right, "id", "id")
	if semi.NumRows() != 5 {
		t.Errorf("semi rows = %d, want 5 (two 1s and three 3s)", semi.NumRows())
	}
	if anti.NumRows() != 1 {
		t.Errorf("anti rows = %d, want 1 (the single 2)", anti.NumRows())
	}
	ids := semi.IntCol("id")
	for i, want := range []int64{1, 1, 3, 3, 3} {
		if ids.Get(i) != want {
			t.Errorf("semi row %d = %d, want %d (order must be preserved)", i, ids.Get(i), want)
		}
	}
}

func TestEmptyInputOperators(t *testing.T) {
	e := &Exec{}
	empty := numbers(0)
	full := numbers(4)
	if f := e.Filter(empty, func(int) bool { return true }); f.NumRows() != 0 {
		t.Error("filter of empty input must be empty")
	}
	if j := e.Join(empty, full, "k", "k"); j.NumRows() != 0 {
		t.Error("join with empty left must be empty")
	}
	if j := e.Join(full, empty, "k", "k"); j.NumRows() != 0 {
		t.Error("join with empty right must be empty")
	}
	if s := e.SemiJoin(full, empty, "k", "k"); s.NumRows() != 0 {
		t.Error("semi join against empty right must be empty")
	}
	if a := e.AntiJoin(full, empty, "k", "k"); a.NumRows() != full.NumRows() {
		t.Error("anti join against empty right must keep everything")
	}
	if s := e.Sort(empty, OrderSpec{Col: "k"}); s.NumRows() != 0 {
		t.Error("sort of empty input must be empty")
	}
	if l := e.Limit(empty, 5); l.NumRows() != 0 {
		t.Error("limit of empty input must be empty")
	}
}

func TestAggregateZeroGroups(t *testing.T) {
	// Empty input yields zero groups — even for a global (nil groupBy)
	// aggregate, matching SQL's grouped-aggregate-over-empty semantics
	// in the row-at-a-time engine.
	e := &Exec{}
	out := e.Aggregate(numbers(0), nil, []AggSpec{{Fn: "sum", Col: "v", As: "s"}})
	if out.NumRows() != 0 {
		t.Errorf("aggregate of empty input has %d rows, want 0", out.NumRows())
	}
	grouped := e.Aggregate(numbers(0), []string{"grp"}, []AggSpec{{Fn: "count", Col: "*", As: "n"}})
	if grouped.NumRows() != 0 {
		t.Errorf("grouped aggregate of empty input has %d rows, want 0", grouped.NumRows())
	}
}

func TestAggregateSumCountAvg(t *testing.T) {
	e := &Exec{}
	out := e.Aggregate(numbers(9), []string{"grp"}, []AggSpec{
		{Fn: "sum", Col: "v", As: "sv"},
		{Fn: "count", Col: "*", As: "n"},
		{Fn: "avg", Col: "v", As: "av"},
		{Fn: "min", Col: "v", As: "mn"},
		{Fn: "max", Col: "v", As: "mx"},
	})
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", out.NumRows())
	}
	// Group g0 holds k=0,3,6 → v=0,6,12.
	for _, r := range RowsOf(out) {
		if r[0].(string) != "g0" {
			continue
		}
		if r[1].(float64) != 18 || r[2].(int64) != 3 || r[3].(float64) != 6 || r[4].(float64) != 0 || r[5].(float64) != 12 {
			t.Errorf("g0 aggregates = %v", r)
		}
	}
}

func TestAggregateGlobal(t *testing.T) {
	e := &Exec{}
	out := e.Aggregate(numbers(4), nil, []AggSpec{{Fn: "sum", Col: "v", As: "s"}})
	if out.NumRows() != 1 || out.FloatCol("s").Get(0) != 12 {
		t.Errorf("global sum = %v", RowsOf(out))
	}
}

// TestAggregateMinMaxString: min and max, like sum and avg, need a
// numeric column; over a Str column Aggregate panics (a schema error in
// the hand-written plan), raw or dict-encoded.
func TestAggregateMinMaxString(t *testing.T) {
	for _, tb := range []*Table{numbers(5), NewTable("d", Schema{{Name: "grp", Type: Str}}, EncodeDict([]string{"b", "a"}))} {
		for _, fn := range []string{"min", "max"} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s over a Str column must panic", fn)
					}
				}()
				(&Exec{}).Aggregate(tb, nil, []AggSpec{{Fn: fn, Col: "grp", As: "m"}})
			}()
		}
	}
}

func TestSortAscDesc(t *testing.T) {
	e := &Exec{}
	out := e.Sort(numbers(10), OrderSpec{Col: "grp"}, OrderSpec{Col: "k", Desc: true})
	gs := out.StrCol("grp")
	ks := out.IntCol("k")
	var lastG string
	lastK := int64(1 << 62)
	for i := 0; i < out.NumRows(); i++ {
		g, k := gs.Get(i), ks.Get(i)
		if g < lastG {
			t.Fatal("not sorted by grp")
		}
		if g != lastG {
			lastG, lastK = g, 1<<62
		}
		if k > lastK {
			t.Fatal("not sorted by k desc within group")
		}
		lastK = k
	}
}

func TestSortDoesNotMutateInput(t *testing.T) {
	e := &Exec{}
	in := numbers(5)
	first := in.IntCol("k").Get(0)
	e.Sort(in, OrderSpec{Col: "k", Desc: true})
	if in.IntCol("k").Get(0) != first {
		t.Error("sort mutated its input")
	}
}

func TestLimit(t *testing.T) {
	e := &Exec{}
	out := e.Limit(numbers(10), 3)
	if out.NumRows() != 3 {
		t.Errorf("limit rows = %d", out.NumRows())
	}
	if e.Limit(numbers(2), 5).NumRows() != 2 {
		t.Error("limit beyond size should be identity")
	}
}

func TestLimitAfterSortSharesVectors(t *testing.T) {
	// Sort + Limit must stay a view: the output shares the input's
	// column vectors, only the selection vector is new.
	e := &Exec{}
	in := numbers(100)
	out := e.Limit(e.Sort(in, OrderSpec{Col: "k", Desc: true}), 10)
	if out.NumRows() != 10 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if out.Cols[0] != in.Cols[0] {
		t.Error("sort+limit must share the input's column vectors")
	}
	if out.IntCol("k").Get(0) != 99 {
		t.Errorf("top row = %d, want 99", out.IntCol("k").Get(0))
	}
}

func TestExtend(t *testing.T) {
	tb := numbers(3)
	v := tb.FloatCol("v")
	out := (&Exec{}).ExtendFloat(tb, "double", func(i int) float64 { return v.Get(i) * 2 })
	if len(out.Schema) != 4 {
		t.Fatal("extend did not add a column")
	}
	if out.FloatCol("double").Get(2) != 8 {
		t.Errorf("extended value = %v", out.FloatCol("double").Get(2))
	}
}

// TestExtendOnViewKeepsVectors: extending a view appends one dense column
// and leaves the view's columns on the base vectors.
func TestExtendOnViewKeepsVectors(t *testing.T) {
	e := &Exec{}
	tb := numbers(10)
	k := tb.IntCol("k")
	f := e.Filter(tb, func(i int) bool { return k.Get(i)%2 == 0 })
	fk := f.IntCol("k")
	out := e.ExtendInt(f, "kk", func(i int) int64 { return fk.Get(i) * 10 })
	if out.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", out.NumRows())
	}
	if out.Cols[0] != tb.Cols[0] || out.Cols[3].Len() != 5 {
		t.Error("extend must keep the view's vectors and append a dense column")
	}
	for i := 0; i < out.NumRows(); i++ {
		if out.IntCol("kk").Get(i) != out.IntCol("k").Get(i)*10 {
			t.Errorf("row %d: kk=%d k=%d", i, out.IntCol("kk").Get(i), out.IntCol("k").Get(i))
		}
	}
}

func TestAvgRowBytes(t *testing.T) {
	tb := numbers(10)
	b := tb.AvgRowBytes()
	// 2 numeric (8 each) + "gN" string (2+1).
	if b != 19 {
		t.Errorf("avg row bytes = %d, want 19", b)
	}
	empty := NewTable("e", tb.Schema)
	if empty.AvgRowBytes() <= 0 {
		t.Error("empty table must estimate width from schema")
	}
}

func TestAvgRowBytesExactOnView(t *testing.T) {
	// Width is computed over the selected rows only, exactly.
	// "a" is 2 bytes encoded, "abcdefghi" 10.
	t1 := NewTable("t", Schema{{Name: "s", Type: Str}}, StrsV([]string{"a", "abcdefghi"}))
	e := &Exec{}
	sv := t1.StrCol("s")
	long := e.Filter(t1, func(i int) bool { return len(sv.Get(i)) > 1 })
	if got := long.AvgRowBytes(); got != 10 {
		t.Errorf("view width = %d, want 10 (only the long row is selected)", got)
	}
	if got := t1.AvgRowBytes(); got != 6 {
		t.Errorf("dense width = %d, want 6 ((2+10)/2)", got)
	}
}

// columnsSource serves its table projected to the scanned columns.
type columnsSource struct{ *TableSource }

func (s columnsSource) ScanTable(cols []string, pred ZonePredicate) (*Table, ScanStats) {
	t, stats := s.TableSource.ScanTable(cols, pred)
	return t.Columns(cols), stats
}

// TestStepLogWidthsOnDemand: no operator measures a width. Until
// StepLog.Widths runs, no table the log holds has its width memoized;
// after it runs, every step carries the exact AvgRowBytes of the tables
// it read and produced, and the log holds no table.
func TestStepLogWidthsOnDemand(t *testing.T) {
	shrinkJoinMorsels(t, 16)
	shrinkSortMorsels(t, 16)
	for _, workers := range []int{1, 2, 7} {
		const n = 600
		ks, fs, ss := make([]int64, n), make([]float64, n), make([]string, n)
		for i := range ks {
			ks[i], fs[i], ss[i] = int64(i%97), float64(i%13), strings.Repeat("x", i%29)
		}
		raw := NewTable("base", Schema{{Name: "k", Type: Int}, {Name: "f", Type: Float}, {Name: "s", Type: Str}},
			IntsV(ks), FloatsV(fs), StrsV(ss))
		base := (&Exec{}).Filter(raw, func(i int) bool { return i%5 != 0 }) // s under a selection
		dim := NewTable("dim", Schema{{Name: "dk", Type: Int}, {Name: "ds", Type: Str}},
			IntsV([]int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}),
			StrsV([]string{"a", "bb", "ccc", "dddd", "e", "ff", "g", "hhhhhhh", "i", "jj"}))

		e := &Exec{Parallelism: workers}
		scan := e.ScanSource(columnsSource{NewTableSource(base)}, []string{"s", "k"}, nil)
		sv := scan.StrCol("s")
		short := e.Filter(scan, func(i int) bool { return len(sv.Get(i))%3 != 0 })
		kept := e.Where(short, IntBetween("k", 0, 60).On(short))
		joined := e.Join(kept, dim, "k", "dk")
		semi := e.SemiJoin(kept, dim, "k", "dk")
		anti := e.AntiJoin(kept, dim, "k", "dk")
		e.Aggregate(joined, []string{"ds"}, []AggSpec{{Fn: "count", Col: "*", As: "n"}})
		e.Sort(semi, OrderSpec{Col: "s"})
		e.TopK(anti, 7, OrderSpec{Col: "s", Desc: true})

		for _, p := range e.Log.pending {
			for _, tb := range []*Table{p.left, p.right, p.out} {
				if tb != nil && tb.avgBytes.Load() != 0 {
					t.Fatalf("workers=%d: step %d (%v) measured %q before Widths", workers, p.i, e.Log.Steps[p.i].Kind, tb.Name)
				}
			}
		}
		type want struct{ left, right, out int }
		wants := make([]want, len(e.Log.Steps))
		for _, p := range e.Log.pending {
			wants[p.i] = want{p.left.AvgRowBytes(), 0, p.out.AvgRowBytes()}
			if p.right != nil {
				wants[p.i].right = p.right.AvgRowBytes()
			}
		}
		if len(e.Log.pending) != len(e.Log.Steps) || len(e.Log.Steps) != 10 {
			t.Fatalf("workers=%d: %d steps, %d pending, want 10 of each", workers, len(e.Log.Steps), len(e.Log.pending))
		}
		steps := e.Log.Widths()
		for i, s := range steps {
			if got := (want{s.LeftWidth, s.RightWidth, s.OutWidth}); got != wants[i] || got.left == 0 {
				t.Errorf("workers=%d: step %d (%v) widths %+v, want %+v", workers, i, s.Kind, got, wants[i])
			}
		}
		if e.Log.pending != nil {
			t.Errorf("workers=%d: the log still holds %d steps' tables", workers, len(e.Log.pending))
		}
		if again := e.Log.Widths(); !slices.Equal(again, steps) {
			t.Errorf("workers=%d: a second Widths call changed the steps", workers)
		}
	}
}

func TestJoinKeyTypeMismatchPanics(t *testing.T) {
	e := &Exec{}
	left := NewTable("l", Schema{{Name: "a", Type: Int}})
	right := NewTable("r", Schema{{Name: "b", Type: Str}})
	defer func() {
		if recover() == nil {
			t.Error("join across key types must panic")
		}
	}()
	e.Join(left, right, "a", "b")
}

func TestFilterOfFilterComposesSelections(t *testing.T) {
	e := &Exec{}
	tb := numbers(30)
	k := tb.IntCol("k")
	f1 := e.Filter(tb, func(i int) bool { return k.Get(i) >= 10 })
	fk := f1.IntCol("k")
	f2 := e.Filter(f1, func(i int) bool { return fk.Get(i)%2 == 0 })
	if f2.NumRows() != 10 {
		t.Fatalf("rows = %d, want 10 (even k in [10,30))", f2.NumRows())
	}
	if f2.Cols[0] != tb.Cols[0] {
		t.Error("chained filters must still share the base vectors")
	}
	for i := 0; i < f2.NumRows(); i++ {
		v := f2.IntCol("k").Get(i)
		if v < 10 || v%2 != 0 {
			t.Errorf("row %d = %d, fails composed predicate", i, v)
		}
	}
}

func TestCompacted(t *testing.T) {
	e := &Exec{}
	tb := numbers(10)
	k := tb.IntCol("k")
	f := e.Filter(tb, func(i int) bool { return k.Get(i) >= 7 })
	d := f.Compacted()
	if d.NumRows() != 3 || d.Cols[0].Len() != 3 {
		t.Fatalf("compacted rows = %d (physical %d), want 3", d.NumRows(), d.Cols[0].Len())
	}
	if d.Cols[0] == tb.Cols[0] {
		t.Error("compacted table must own dense vectors")
	}
	if d.Base != f.Base {
		t.Error("compaction must preserve the base annotation")
	}
	if tb.Compacted() != tb {
		t.Error("compacting a dense table must be a no-op")
	}
}

func TestJoinMatchesNestedLoopProperty(t *testing.T) {
	f := func(lk, rk []uint8) bool {
		e := &Exec{}
		mod8 := func(ks []uint8) []int64 {
			out := make([]int64, len(ks))
			for i, k := range ks {
				out[i] = int64(k % 8)
			}
			return out
		}
		left, right := intTable("l", "a", mod8(lk)...), intTable("r", "b", mod8(rk)...)
		got := e.Join(left, right, "a", "b").NumRows()
		want := 0
		for _, l := range left.Cols[0].Ints {
			for _, r := range right.Cols[0].Ints {
				if l == r {
					want++
				}
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAggregatePreservesTotalCountProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		e := &Exec{}
		gs := make([]int64, len(vals))
		for i, v := range vals {
			gs[i] = int64(v % 5)
		}
		tb := intTable("t", "g", gs...)
		out := e.Aggregate(tb, []string{"g"}, []AggSpec{{Fn: "count", Col: "*", As: "n"}})
		var total int64
		ns := out.IntCol("n")
		for i := 0; i < out.NumRows(); i++ {
			total += ns.Get(i)
		}
		return total == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSortIsStableOrdering(t *testing.T) {
	e := &Exec{}
	tb := numbers(50)
	out := e.Sort(tb, OrderSpec{Col: "grp"})
	// Within each group, original k order must be preserved (stable).
	perGroup := map[string][]int64{}
	gs := out.StrCol("grp")
	ks := out.IntCol("k")
	for i := 0; i < out.NumRows(); i++ {
		perGroup[gs.Get(i)] = append(perGroup[gs.Get(i)], ks.Get(i))
	}
	for g, kvs := range perGroup {
		if !sort.SliceIsSorted(kvs, func(i, j int) bool { return kvs[i] < kvs[j] }) {
			t.Errorf("group %s not stable: %v", g, kvs)
		}
	}
}
