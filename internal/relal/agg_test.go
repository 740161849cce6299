package relal

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// oracleAggregate is the naive reference for group-by: one boxed row at
// a time, a map keyed by the %q-quoted group cells, groups in first-seen
// order, sums added in row order. It shares no code with the kernel in
// agg.go. Float key cells are keyed by bit pattern with every NaN folded
// to one; numeric min/max skip NaN cells and fall back to ±Inf.
func oracleAggregate(sch Schema, rows []Row, groupBy []string, aggs []AggSpec) []Row {
	type state struct {
		key        Row
		count      int64
		sum        []float64
		min, max   []float64
		haveNum    []bool
		smin, smax []string
	}
	num := func(c interface{}) float64 {
		if x, ok := c.(int64); ok {
			return float64(x)
		}
		return c.(float64)
	}
	byKey := map[string]*state{}
	var order []*state
	for _, r := range rows {
		var key strings.Builder
		for _, g := range groupBy {
			switch c := r[sch.Col(g)].(type) {
			case float64:
				if math.IsNaN(c) {
					key.WriteString("NaN,")
				} else {
					fmt.Fprintf(&key, "%016x,", math.Float64bits(c))
				}
			case string:
				fmt.Fprintf(&key, "%q,", c)
			default:
				fmt.Fprintf(&key, "%d,", c)
			}
		}
		st := byKey[key.String()]
		if st == nil {
			st = &state{
				sum: make([]float64, len(aggs)), min: make([]float64, len(aggs)), max: make([]float64, len(aggs)),
				haveNum: make([]bool, len(aggs)), smin: make([]string, len(aggs)), smax: make([]string, len(aggs)),
			}
			for _, g := range groupBy {
				st.key = append(st.key, r[sch.Col(g)])
			}
			byKey[key.String()] = st
			order = append(order, st)
		}
		st.count++
		for a, spec := range aggs {
			if spec.Fn == "count" {
				continue
			}
			if s, ok := r[sch.Col(spec.Col)].(string); ok {
				if st.count == 1 || s < st.smin[a] {
					st.smin[a] = s
				}
				if st.count == 1 || s > st.smax[a] {
					st.smax[a] = s
				}
				continue
			}
			v := num(r[sch.Col(spec.Col)])
			st.sum[a] += v
			if math.IsNaN(v) {
				continue
			}
			// Strict comparisons: among equal cells (0 and -0) the first wins.
			if !st.haveNum[a] || v < st.min[a] {
				st.min[a] = v
			}
			if !st.haveNum[a] || v > st.max[a] {
				st.max[a] = v
			}
			st.haveNum[a] = true
		}
	}
	out := make([]Row, len(order))
	for g, st := range order {
		r := append(Row{}, st.key...)
		for a, spec := range aggs {
			isStr := spec.Col != "*" && sch[sch.Col(spec.Col)].Type == Str
			switch {
			case spec.Fn == "count":
				r = append(r, st.count)
			case spec.Fn == "sum":
				r = append(r, st.sum[a])
			case spec.Fn == "avg":
				r = append(r, st.sum[a]/float64(st.count))
			case spec.Fn == "min" && isStr:
				r = append(r, st.smin[a])
			case spec.Fn == "max" && isStr:
				r = append(r, st.smax[a])
			case spec.Fn == "min" && !st.haveNum[a]:
				r = append(r, math.Inf(1))
			case spec.Fn == "min":
				r = append(r, st.min[a])
			case !st.haveNum[a]:
				r = append(r, math.Inf(-1))
			default:
				r = append(r, st.max[a])
			}
		}
		out[g] = r
	}
	return out
}

// otherNaN is a NaN whose payload differs from math.NaN()'s: as a group
// key it must land in the same group.
var otherNaN = math.Float64frombits(math.Float64bits(math.NaN()) ^ 0x5a5a)

// sameRows compares kernel output to oracle output cell by cell, floats
// by bit pattern (any NaN equals any NaN: the payload a NaN sum carries
// is the hardware's business).
func sameRows(got, want []Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, oracle has %d", len(got), len(want))
	}
	for g := range want {
		if len(got[g]) != len(want[g]) {
			return fmt.Errorf("group %d: %d cells, oracle has %d", g, len(got[g]), len(want[g]))
		}
		for c, w := range want[g] {
			same := got[g][c] == w
			if wf, ok := w.(float64); ok {
				gf, isF := got[g][c].(float64)
				same = isF && (math.Float64bits(gf) == math.Float64bits(wf) || math.IsNaN(gf) && math.IsNaN(wf))
			}
			if !same {
				return fmt.Errorf("group %d cell %d: %#v, oracle has %#v", g, c, got[g][c], w)
			}
		}
	}
	return nil
}

// tableRep names the groupTable representation the kernel picks for t
// grouped by keys.
func tableRep(t *Table, keys []string) string {
	gidx := make([]int, len(keys))
	for i, k := range keys {
		gidx[i] = t.Schema.Col(k)
	}
	switch tab := newGroupKeys(t, gidx).table(); {
	case tab.slots != nil:
		return "slots"
	case tab.ints != nil:
		return "ints"
	}
	return "strs"
}

// aggDiffTables builds one logical table twice — Str columns raw, and
// dict-encoded — whose key columns cover every key shape: a small Int
// span, a wide one, one holding both int64 extremes, Floats with ±0, two
// NaN payloads and +Inf, raw strings with "" and NUL bytes. Every pool a
// cell is drawn from grows with the row index, so groups recur across
// morsels and new ones are first seen in every later morsel.
func aggDiffTables(rows int, seed int64) (raw, dict *Table) {
	rng := rand.New(rand.NewSource(seed))
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), otherNaN, math.Inf(1), 1.5, -1.5, 1e300, 5e-324}
	strs := []string{"", "\x00", "a", "a\x00", "\x00b", "b", "ab", "c", "bc", "a\x00\x00b", "é", "zz"}
	wide := make([]int64, 3000)
	for i := range wide {
		wide[i] = rng.Int63n(1e15) - 5e14
	}
	ext := []int64{0, math.MinInt64, 7, math.MaxInt64, -1, math.MinInt64 + 1, math.MaxInt64 - 1}
	pick := func(i, pool int) int { return rng.Intn(1 + pool*(i+1)/rows) }

	small, wides, exts := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	kf, v, vi := make([]float64, rows), make([]float64, rows), make([]int64, rows)
	kd, ks, ks2, vs := make([]string, rows), make([]string, rows), make([]string, rows), make([]string, rows)
	for i := 0; i < rows; i++ {
		small[i] = int64(pick(i, 9)) - 4
		wides[i] = wide[pick(i, len(wide))]
		exts[i] = ext[pick(i, len(ext))]
		kf[i] = floats[pick(i, len(floats))]
		kd[i] = dictPool[pick(i, len(dictPool))]
		ks[i] = strs[pick(i, len(strs))]
		ks2[i] = strs[rng.Intn(len(strs))]
		v[i] = rng.Float64()*2000 - 1000
		if rng.Intn(50) == 0 {
			v[i] = floats[rng.Intn(len(floats))]
		}
		vi[i] = rng.Int63n(1e6) - 5e5
		vs[i] = fmt.Sprintf("%s-%d", strs[rng.Intn(len(strs))], rng.Intn(40))
	}
	sch := Schema{
		{Name: "small", Type: Int}, {Name: "wide", Type: Int}, {Name: "ext", Type: Int},
		{Name: "kf", Type: Float}, {Name: "kd", Type: Str}, {Name: "ks", Type: Str}, {Name: "ks2", Type: Str},
		{Name: "v", Type: Float}, {Name: "vi", Type: Int}, {Name: "vs", Type: Str},
	}
	raw = NewTable("d", sch, IntsV(small), IntsV(wides), IntsV(exts),
		FloatsV(kf), StrsV(kd), StrsV(ks), StrsV(ks2), FloatsV(v), IntsV(vi), StrsV(vs))
	dict = NewTable("d", sch, IntsV(small), IntsV(wides), IntsV(exts),
		FloatsV(kf), EncodeDict(kd), EncodeDict(ks), EncodeDict(ks2), FloatsV(v), IntsV(vi), EncodeDict(vs))
	return raw, dict
}

// TestAggregateDifferential holds Exec.Aggregate to the naive oracle:
// every key shape × raw/dict strings × dense table / filtered view /
// sort-permuted view × workers {1, 2, 7}, over more than three morsels,
// seven aggregates at once. Group order, counts and the bits of every
// float must match, and the inputs must take each of the three
// groupTable representations through the multi-morsel merge.
func TestAggregateDifferential(t *testing.T) {
	rows := 3*MorselRows + 1500
	raw, dict := aggDiffTables(rows, 22)
	keySets := [][]string{
		nil,
		{"kd"},
		{"small"},
		{"small", "kd"},
		{"wide"},
		{"ext", "small"}, // MinInt64…MaxInt64: the span overflows, falls back to bytes
		{"kf"},
		{"ks"},
		{"ks", "ks2"},
		{"kd", "kf"},
		{"wide", "ks", "small"},
	}
	aggs := []AggSpec{
		{Fn: "count", Col: "*", As: "n"},
		{Fn: "sum", Col: "v", As: "sum_v"},
		{Fn: "avg", Col: "vi", As: "avg_vi"},
		{Fn: "min", Col: "v", As: "min_v"},
		{Fn: "max", Col: "vi", As: "max_vi"},
		{Fn: "min", Col: "vs", As: "min_vs"},
		{Fn: "max", Col: "vs", As: "max_vs"},
	}
	views := []struct {
		name string
		of   func(*Table) *Table
	}{
		{"dense", func(tb *Table) *Table { return tb }},
		{"filtered", func(tb *Table) *Table {
			vi := tb.IntCol("vi")
			return (&Exec{}).Filter(tb, func(i int) bool { return vi.Get(i)%3 != 0 })
		}},
		{"sorted", func(tb *Table) *Table { return (&Exec{}).Sort(tb, OrderSpec{Col: "v"}, OrderSpec{Col: "vi"}) }},
	}
	reps := map[string]bool{}
	for _, view := range views {
		rawV, dictV := view.of(raw), view.of(dict)
		if rawV.NumRows() <= 2*MorselRows {
			t.Fatalf("%s view has %d rows: not enough morsels", view.name, rawV.NumRows())
		}
		boxed := RowsOf(rawV)
		for _, keys := range keySets {
			want := oracleAggregate(raw.Schema, boxed, keys, aggs)
			for enc, tb := range map[string]*Table{"raw": rawV, "dict": dictV} {
				if len(keys) > 0 {
					reps[tableRep(tb, keys)] = true
				}
				for _, workers := range []int{1, 2, 7} {
					got := (&Exec{Parallelism: workers}).Aggregate(tb, keys, aggs)
					if err := sameRows(RowsOf(got), want); err != nil {
						t.Fatalf("%s/%s keys=%v workers=%d: %v", view.name, enc, keys, workers, err)
					}
				}
			}
		}
	}
	for _, rep := range []string{"slots", "ints", "strs"} {
		if !reps[rep] {
			t.Errorf("no key set took the %s representation", rep)
		}
	}
}

// tiled repeats xs until it is n cells long.
func tiled[T any](xs []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i%len(xs)]
	}
	return out
}

// TestAggregateKeyBoundaries pins the key encoding at its edges: cells
// that only differ in where one string ends and the next begins, ""
// keys, both int64 extremes in one column, and Float keys by bit pattern
// (0 and -0 apart, every NaN one group). Each pattern is tiled past two
// morsels so the one-morsel and the merged path both see it.
func TestAggregateKeyBoundaries(t *testing.T) {
	n := 2*MorselRows + 2*3*5*7
	cases := []struct {
		name   string
		cols   []*Vector
		groups int
	}{
		{"NUL inside raw strings", []*Vector{
			StrsV(tiled([]string{"a\x00", "a"}, n)), StrsV(tiled([]string{"b", "\x00b"}, n))}, 2},
		{"shifted string boundary", []*Vector{
			StrsV(tiled([]string{"ab", "a"}, n)), StrsV(tiled([]string{"c", "bc"}, n))}, 2},
		{"empty strings", []*Vector{
			StrsV(tiled([]string{"", "", "x"}, n)), StrsV(tiled([]string{"", "x", ""}, n))}, 3},
		{"int64 extremes beside a second key", []*Vector{
			IntsV(tiled([]int64{math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64, 0}, n)),
			IntsV(tiled([]int64{0, 0, 1, 1, 0}, n))}, 5},
		{"float zeros and NaNs", []*Vector{
			FloatsV(tiled([]float64{0, math.Copysign(0, -1), math.NaN(), otherNaN}, n))}, 3},
	}
	for _, c := range cases {
		sch := make(Schema, len(c.cols))
		keys := make([]string, len(c.cols))
		for i, v := range c.cols {
			keys[i] = fmt.Sprintf("k%d", i)
			sch[i] = Column{Name: keys[i], Type: v.Kind}
		}
		tb := NewTable("b", sch, c.cols...)
		for _, workers := range []int{1, 3} {
			out := (&Exec{Parallelism: workers}).Aggregate(tb, keys, []AggSpec{{Fn: "count", Col: "*", As: "n"}})
			if out.NumRows() != c.groups {
				t.Errorf("%s, workers=%d: %d groups, want %d", c.name, workers, out.NumRows(), c.groups)
				continue
			}
			if err := sameRows(RowsOf(out), oracleAggregate(sch, RowsOf(tb), keys, []AggSpec{{Fn: "count", Col: "*", As: "n"}})); err != nil {
				t.Errorf("%s, workers=%d: %v", c.name, workers, err)
			}
		}
	}
}

// TestAggregateMinMaxInfinities: numeric min/max return a value of the
// input even when that value is infinite or beyond ±1e308, and a NaN
// cell never wins.
func TestAggregateMinMaxInfinities(t *testing.T) {
	cases := []struct {
		in       []float64
		min, max float64
	}{
		{[]float64{math.Inf(1), 1.5e308}, 1.5e308, math.Inf(1)},
		{[]float64{math.Inf(-1)}, math.Inf(-1), math.Inf(-1)},
		{[]float64{math.Inf(1)}, math.Inf(1), math.Inf(1)},
		{[]float64{-1.5e308, math.Inf(-1)}, math.Inf(-1), -1.5e308},
		{[]float64{math.NaN(), 2, math.NaN()}, 2, 2},
	}
	for _, c := range cases {
		tb := NewTable("m", Schema{{Name: "v", Type: Float}}, FloatsV(c.in))
		out := (&Exec{}).Aggregate(tb, nil, []AggSpec{
			{Fn: "min", Col: "v", As: "mn"}, {Fn: "max", Col: "v", As: "mx"}})
		if mn, mx := out.FloatCol("mn").Get(0), out.FloatCol("mx").Get(0); mn != c.min || mx != c.max {
			t.Errorf("min/max over %v = %v/%v, want %v/%v", c.in, mn, mx, c.min, c.max)
		}
	}
}
