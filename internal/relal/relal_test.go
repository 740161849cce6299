package relal

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func numbers(n int) *Table {
	t := NewTable("nums", Schema{
		{Name: "k", Type: Int},
		{Name: "v", Type: Float},
		{Name: "grp", Type: Str},
	})
	for i := 0; i < n; i++ {
		AppendRow(t, Row{int64(i), float64(i) * 2, fmt.Sprintf("g%d", i%3)})
	}
	return t
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
	SetBase(tb, "nums")
	k := tb.IntCol("k")
	f := e.Filter(tb, func(i int) bool { return k.Get(i) >= 5 })
	if f.NumRows() != 5 {
		t.Errorf("filtered rows = %d, want 5", f.NumRows())
	}
	if BaseOf(f) != "nums" {
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
	left := NewTable("l", Schema{{Name: "id", Type: Int}, {Name: "x", Type: Str}})
	right := NewTable("r", Schema{{Name: "rid", Type: Int}, {Name: "y", Type: Str}})
	for i := 0; i < 4; i++ {
		AppendRow(left, Row{int64(i), fmt.Sprintf("x%d", i)})
	}
	AppendRow(right, Row{int64(1), "a"})
	AppendRow(right, Row{int64(1), "b"})
	AppendRow(right, Row{int64(3), "c"})
	out := e.Join(left, right, "id", "rid")
	if out.NumRows() != 3 {
		t.Fatalf("join rows = %d, want 3 (1×2 + 3×1)", out.NumRows())
	}
	if BaseOf(out) != "" {
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
	right := NewTable("r", Schema{{Name: "id", Type: Int}})
	for i := 0; i < 10; i += 2 {
		AppendRow(right, Row{int64(i)})
	}
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
	left := NewTable("l", Schema{{Name: "id", Type: Int}})
	for _, k := range []int64{1, 1, 2, 3, 3, 3} {
		AppendRow(left, Row{k})
	}
	right := NewTable("r", Schema{{Name: "id", Type: Int}})
	for _, k := range []int64{1, 1, 1, 3} {
		AppendRow(right, Row{k})
	}
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

func TestAggregateMinMaxString(t *testing.T) {
	e := &Exec{}
	out := e.Aggregate(numbers(5), nil, []AggSpec{
		{Fn: "min", Col: "grp", As: "m"},
		{Fn: "max", Col: "grp", As: "x"},
	})
	if out.StrCol("m").Get(0) != "g0" {
		t.Errorf("min string = %v", out.StrCol("m").Get(0))
	}
	if out.StrCol("x").Get(0) != "g2" {
		t.Errorf("max string = %v", out.StrCol("x").Get(0))
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

func TestExtendOnViewCompacts(t *testing.T) {
	e := &Exec{}
	tb := numbers(10)
	k := tb.IntCol("k")
	f := e.Filter(tb, func(i int) bool { return k.Get(i)%2 == 0 })
	fk := f.IntCol("k")
	out := e.ExtendInt(f, "kk", func(i int) int64 { return fk.Get(i) * 10 })
	if out.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", out.NumRows())
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
	t1 := NewTable("t", Schema{{Name: "s", Type: Str}})
	AppendRow(t1, Row{"a"})         // 2 bytes encoded
	AppendRow(t1, Row{"abcdefghi"}) // 10 bytes encoded
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

func TestRowsOfAppendRowRoundTrip(t *testing.T) {
	src := numbers(7)
	dst := NewTable("copy", src.Schema)
	for _, r := range RowsOf(src) {
		AppendRow(dst, r)
	}
	got, want := RowsOf(dst), RowsOf(src)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

func TestAppendRowToSharedViewDoesNotCorruptSource(t *testing.T) {
	// Project/Limit outputs alias the source's vectors; AppendRow must
	// privatize them so the source table never desynchronizes.
	e := &Exec{}
	tb := numbers(4)
	p := e.Project(tb, "k")
	AppendRow(p, Row{int64(99)})
	if p.NumRows() != 5 || p.IntCol("k").Get(4) != 99 {
		t.Errorf("projection after append = %v", RowsOf(p))
	}
	if tb.NumRows() != 4 || tb.Cols[0].Len() != 4 {
		t.Errorf("source table corrupted: %d rows, col len %d", tb.NumRows(), tb.Cols[0].Len())
	}
	lim := e.Limit(tb, 10) // identity limit still shares vectors
	AppendRow(lim, Row{int64(7), 14.0, "g1"})
	if tb.NumRows() != 4 {
		t.Errorf("source table corrupted via limit view: %d rows", tb.NumRows())
	}
	if lim.NumRows() != 5 {
		t.Errorf("limit view rows = %d, want 5", lim.NumRows())
	}
}

func TestAppendRowToSourceDoesNotCorruptViews(t *testing.T) {
	// The aliasing goes both ways: appending to the *source* after a
	// view/extension was derived from it must privatize too, or the
	// derived table's columns desynchronize.
	tb := numbers(2)
	v := tb.FloatCol("v")
	ext := (&Exec{}).ExtendFloat(tb, "v2", func(i int) float64 { return v.Get(i) })
	AppendRow(tb, Row{int64(9), 18.0, "g0"})
	if tb.NumRows() != 3 {
		t.Errorf("source rows = %d, want 3", tb.NumRows())
	}
	if ext.NumRows() != 2 {
		t.Errorf("extended rows = %d, want 2", ext.NumRows())
	}
	for _, r := range RowsOf(ext) { // must not panic on ragged columns
		if len(r) != 4 {
			t.Fatalf("ragged extended row %v", r)
		}
	}
}

func TestAppendRowToAdoptedVectorsDoesNotCorruptAlias(t *testing.T) {
	// NewTable adopts supplied vectors, which may alias another table's
	// columns (the q7/q8 renamed-nation pattern); appends to either
	// table must privatize first.
	base := NewTable("base", Schema{
		{Name: "k", Type: Int},
		{Name: "s", Type: Str},
	}, IntsV([]int64{1, 2}), StrsV([]string{"a", "b"}))
	alias := NewTable("alias", Schema{
		{Name: "k2", Type: Int},
		{Name: "s2", Type: Str},
	}, base.Cols[0], base.Cols[1])
	AppendRow(alias, Row{int64(3), "c"})
	if base.NumRows() != 2 || base.Cols[0].Len() != 2 {
		t.Errorf("base corrupted: %d rows, col len %d", base.NumRows(), base.Cols[0].Len())
	}
	if alias.NumRows() != 3 {
		t.Errorf("alias rows = %d, want 3", alias.NumRows())
	}
	AppendRow(base, Row{int64(4), "d"})
	if alias.NumRows() != 3 || alias.Cols[0].Len() != 3 {
		t.Errorf("alias corrupted by append to base: %d rows", alias.Cols[0].Len())
	}
}

func TestAggregateMinEmptyString(t *testing.T) {
	// "" is a legitimate minimum, not an uninitialized sentinel.
	e := &Exec{}
	tb := NewTable("t", Schema{{Name: "s", Type: Str}})
	AppendRow(tb, Row{""})
	AppendRow(tb, Row{"b"})
	out := e.Aggregate(tb, nil, []AggSpec{{Fn: "min", Col: "s", As: "m"}})
	if got := out.StrCol("m").Get(0); got != "" {
		t.Errorf("min = %q, want empty string", got)
	}
}

func TestAppendRowTypeMismatchPanics(t *testing.T) {
	tb := NewTable("t", Schema{{Name: "x", Type: Int}})
	defer func() {
		if recover() == nil {
			t.Error("AppendRow with a mistyped cell must panic")
		}
	}()
	AppendRow(tb, Row{"not an int"})
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
	if BaseOf(d) != BaseOf(f) {
		t.Error("compaction must preserve the base annotation")
	}
	if tb.Compacted() != tb {
		t.Error("compacting a dense table must be a no-op")
	}
}

func TestJoinMatchesNestedLoopProperty(t *testing.T) {
	f := func(lk, rk []uint8) bool {
		e := &Exec{}
		left := NewTable("l", Schema{{Name: "a", Type: Int}})
		right := NewTable("r", Schema{{Name: "b", Type: Int}})
		for _, k := range lk {
			AppendRow(left, Row{int64(k % 8)})
		}
		for _, k := range rk {
			AppendRow(right, Row{int64(k % 8)})
		}
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
		tb := NewTable("t", Schema{{Name: "g", Type: Int}})
		for _, v := range vals {
			AppendRow(tb, Row{int64(v % 5)})
		}
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
