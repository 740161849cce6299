package relal

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// predTable builds 2*MorselRows+77 rows — enough that the parallel
// filter kernel splits both the table and a two-thirds view of it into
// morsels, the last one short — of an Int, a Float and a Str column
// (dict-encoded or raw), with plateaus and duplicates so every
// comparison has rows on both sides.
func predTable(dict bool) *Table {
	rows := 2*MorselRows + 77
	rng := rand.New(rand.NewSource(19))
	ks := make([]int64, rows)
	fs := make([]float64, rows)
	ss := make([]string, rows)
	for i := range ks {
		ks[i] = int64(i/197) - 40
		fs[i] = float64(rng.Intn(9)) * 0.25
		ss[i] = dictPool[rng.Intn(len(dictPool))]
	}
	sv := StrsV(ss)
	if dict {
		sv = EncodeDict(ss)
	}
	sch := Schema{{Name: "k", Type: Int}, {Name: "f", Type: Float}, {Name: "s", Type: Str}}
	return NewTable("t", sch, IntsV(ks), FloatsV(fs), sv)
}

// TestPredFactories checks every condition constructor compiled by On,
// every StrVec predicate factory, and Not, against the hand-written
// closure over Get: the selection Where produces must equal Filter's,
// on dense tables and on views, over dict and raw strings, serial and
// parallel.
func TestPredFactories(t *testing.T) {
	for _, dict := range []bool{false, true} {
		dense := predTable(dict)
		view := (&Exec{}).Filter(dense, func(i int) bool { return i%3 != 0 })
		for _, tb := range []*Table{dense, view} {
			k, f, s := tb.IntCol("k"), tb.FloatCol("f"), tb.StrCol("s")
			cases := []struct {
				name string
				pred Pred
				want func(i int) bool
			}{
				{"IntEq", IntEq("k", 3).On(tb), func(i int) bool { return k.Get(i) == 3 }},
				{"IntBetween", IntBetween("k", -2, 5).On(tb), func(i int) bool { return k.Get(i) >= -2 && k.Get(i) <= 5 }},
				{"FloatLess", FloatLess("f", 0.75).On(tb), func(i int) bool { return f.Get(i) < 0.75 }},
				{"FloatGreater", FloatGreater("f", 1.25).On(tb), func(i int) bool { return f.Get(i) > 1.25 }},
				{"FloatAtLeast", FloatAtLeast("f", 1.25).On(tb), func(i int) bool { return f.Get(i) >= 1.25 }},
				{"FloatBetween", FloatBetween("f", 0.5, 1).On(tb), func(i int) bool { return f.Get(i) >= 0.5 && f.Get(i) <= 1 }},
				{"StrEq", StrEq("s", "REG").On(tb), func(i int) bool { return s.Get(i) == "REG" }},
				{"Str.Ne", s.Ne("REG"), func(i int) bool { return s.Get(i) != "REG" }},
				{"StrLess", StrLess("s", "N").On(tb), func(i int) bool { return s.Get(i) < "N" }},
				{"StrAtMost", StrAtMost("s", "N").On(tb), func(i int) bool { return s.Get(i) <= "N" }},
				{"StrGreater", StrGreater("s", "AB").On(tb), func(i int) bool { return s.Get(i) > "AB" }},
				{"StrRange", StrRange("s", "AB", "REG").On(tb), func(i int) bool { return s.Get(i) >= "AB" && s.Get(i) < "REG" }},
				{"StrBetween", StrBetween("s", "AB", "REG").On(tb), func(i int) bool { return s.Get(i) >= "AB" && s.Get(i) <= "REG" }},
				{"Str.In", s.In("R", "mail", "zzz"), func(i int) bool { return s.Get(i) == "R" || s.Get(i) == "mail" }},
				{"Str.HasPrefix", s.HasPrefix("1994"), func(i int) bool { return strings.HasPrefix(s.Get(i), "1994") }},
			}
			for _, workers := range []int{1, 2, 7} {
				e := &Exec{Parallelism: workers}
				name := fmt.Sprintf("dict=%v/view=%v/workers=%d", dict, tb == view, workers)
				for _, c := range cases {
					want := e.Filter(tb, c.want)
					if got := e.Where(tb, c.pred); !slices.Equal(got.sel(0), want.sel(0)) {
						t.Fatalf("%s: %s selects %d rows, closure %d", name, c.name, got.NumRows(), want.NumRows())
					}
					wantNot := e.Filter(tb, func(i int) bool { return !c.want(i) })
					if got := e.Where(tb, Not(c.pred)); !slices.Equal(got.sel(0), wantNot.sel(0)) {
						t.Fatalf("%s: Not(%s) selects %d rows, closure %d", name, c.name, got.NumRows(), wantNot.NumRows())
					}
					if want.NumRows() == 0 || wantNot.NumRows() == 0 {
						t.Fatalf("%s: %s is one-sided on the test data", name, c.name)
					}
				}

				// Where is Filter of the conjunction, whatever the mix of
				// factory and closure conjuncts.
				p, q, r := IntEq("k", 3).On(tb), s.Ne(""), PredFn(func(i int) bool { return f.Get(i) != 1 })
				want := e.Filter(tb, func(i int) bool { return p.At(i) && q.At(i) && r.At(i) })
				if got := e.Where(tb, p, q, r); !slices.Equal(got.sel(0), want.sel(0)) || want.NumRows() == 0 {
					t.Fatalf("%s: Where(p, q, r) selects %d rows, Filter(p∧q∧r) %d", name, got.NumRows(), want.NumRows())
				}
				if got := e.Where(tb); got.NumRows() != tb.NumRows() {
					t.Fatalf("%s: Where() keeps %d of %d rows", name, got.NumRows(), tb.NumRows())
				}

				// A conjunction that matches nothing is an empty selection,
				// not a nil one (nil means "every row" to a view).
				nothing := e.Where(tb, ZonePredicate{FloatLess("f", 0.5), FloatGreater("f", 0.5), StrEq("s", "REG")}.On(tb)...)
				if nothing.sel(0) == nil || nothing.NumRows() != 0 || len(RowsOf(nothing)) != 0 {
					t.Fatalf("%s: empty conjunction yields %d rows (sel nil: %v)", name, nothing.NumRows(), nothing.sel(0) == nil)
				}
			}
		}
	}
}

// TestPredBefore holds StrVec.Before to v.Get(i) < w.Get(i) over
// dict×dict (two different dictionaries), raw×raw and both mixed pairs.
// v and w come from the two sides of a join, so each is read through its
// own selection, and a filtered view of the join adds another. Rows
// whose two cells are equal must not pass.
func TestPredBefore(t *testing.T) {
	rows := 2*MorselRows + 77
	rng := rand.New(rand.NewSource(30))
	vs, ws := make([]string, rows), make([]string, rows)
	keys, perm := make([]int64, rows), rng.Perm(rows)
	for i := range vs {
		keys[i] = int64(i)
		vs[i] = fmt.Sprint(rng.Intn(300))
		ws[i] = fmt.Sprint(100 + rng.Intn(300))
		if i%7 == 0 {
			ws[i] = vs[i]
		}
	}
	rkeys, rws := make([]int64, rows), make([]string, rows)
	for j, p := range perm {
		rkeys[j], rws[j] = int64(p), ws[p]
	}
	enc := func(xs []string, dict bool) *Vector {
		if dict {
			return EncodeDict(xs)
		}
		return StrsV(xs)
	}
	for _, c := range []struct{ vDict, wDict bool }{{true, true}, {false, false}, {true, false}, {false, true}} {
		left := NewTable("l", Schema{{Name: "lk", Type: Int}, {Name: "v", Type: Str}}, IntsV(keys), enc(vs, c.vDict))
		right := NewTable("r", Schema{{Name: "rk", Type: Int}, {Name: "w", Type: Str}}, IntsV(rkeys), enc(rws, c.wDict))
		joined := (&Exec{}).Join(left, right, "lk", "rk")
		view := (&Exec{}).Filter(joined, func(i int) bool { return i%3 != 0 })
		for _, tb := range []*Table{joined, view} {
			v, w := tb.StrCol("v"), tb.StrCol("w")
			for _, workers := range []int{1, 3} {
				e := &Exec{Parallelism: workers}
				name := fmt.Sprintf("v dict=%v, w dict=%v, view=%v, workers=%d", c.vDict, c.wDict, tb == view, workers)
				got := e.Where(tb, v.Before(w))
				want := e.Filter(tb, func(i int) bool { return v.Get(i) < w.Get(i) })
				if err := sameRows(RowsOf(got), RowsOf(want)); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				same := func(i int) bool { return v.Get(i) == w.Get(i) }
				if both := e.Where(tb, v.Before(w), PredFn(same)); both.NumRows() != 0 {
					t.Fatalf("%s: %d rows with equal cells pass Before", name, both.NumRows())
				}
				equal := e.Filter(tb, same)
				if want.NumRows() == 0 || want.NumRows()+equal.NumRows() == tb.NumRows() || equal.NumRows() == 0 {
					t.Fatalf("%s: %d rows before, %d equal of %d: the test data lacks a side",
						name, want.NumRows(), equal.NumRows(), tb.NumRows())
				}
			}
		}
	}
}

// Pools the condition soundness check draws cells and bounds from: both
// int64 extremes, ±Inf, NaN, signed zero, the smallest subnormal, and
// strings with "" and shared prefixes. A column draws its cells from a
// prefix of its pool, so a bound from the rest is absent from the
// column (and from its dictionary).
var (
	condInts   = []int64{3, -1, 0, math.MaxInt64, 7, math.MinInt64, 40, math.MaxInt64 - 1, -7, math.MinInt64 + 1, 1}
	condFloats = []float64{0.25, math.NaN(), 24, math.Inf(1), -2.5, math.Copysign(0, -1), 0, math.Inf(-1),
		0.05, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1}
	condStrs = append(append([]string{}, dictPool...), "0", "AA", "REG AIRX", "zzz", "1994")
)

// naiveCond is a condition's meaning, compared value by value: every
// present bound holds, strictly where its flag says so, and a NaN cell
// or bound matches nothing.
func naiveCond[T cmp.Ordered](c ZoneCond, x, lo, hi T) bool {
	above := !c.HasLo || x > lo || !c.LoOpen && x == lo
	below := !c.HasHi || x < hi || !c.HiOpen && x == hi
	return x == x && above && below
}

// checkPredCond builds an Int, a Float and a Str column from next's
// bytes (sorted or not, so zone maps are narrow or wide), the Str
// column raw and dictionary-encoded, and one condition per column with
// open, closed or missing bounds. On must agree with naiveCond over both
// encodings, and no 64-row group that
// mayMatch rules out may hold a row On accepts.
func checkPredCond(t *testing.T, next func() byte) {
	rows := 1 + int(next())%200
	prefix := func(n int) int { return 1 + int(next())%n }
	ni, nf, ns := prefix(len(condInts)), prefix(len(condFloats)), prefix(len(dictPool))
	ints, floats, strs := make([]int64, rows), make([]float64, rows), make([]string, rows)
	for r := range rows {
		ints[r], floats[r], strs[r] = condInts[int(next())%ni], condFloats[int(next())%nf], dictPool[int(next())%ns]
	}
	if next()%2 == 0 {
		slices.Sort(ints)
		slices.SortFunc(floats, cmp.Compare[float64])
		slices.Sort(strs)
	}
	sch := Schema{{Name: "i", Type: Int}, {Name: "f", Type: Float}, {Name: "s", Type: Str}}
	raw := NewTable("t", sch, IntsV(ints), FloatsV(floats), StrsV(strs))
	dict := NewTable("t", sch, IntsV(ints), FloatsV(floats), EncodeDict(strs))
	for col, kind := range []Type{Int, Float, Str} {
		flags := next()
		c := ZoneCond{Col: sch[col].Name, Kind: kind,
			HasLo: flags&1 != 0, HasHi: flags&2 != 0, LoOpen: flags&4 != 0, HiOpen: flags&8 != 0}
		c.IntLo, c.IntHi = condInts[int(next())%len(condInts)], condInts[int(next())%len(condInts)]
		c.FloLo, c.FloHi = condFloats[int(next())%len(condFloats)], condFloats[int(next())%len(condFloats)]
		c.StrLo, c.StrHi = condStrs[int(next())%len(condStrs)], condStrs[int(next())%len(condStrs)]
		want := func(r int) bool {
			switch kind {
			case Int:
				return naiveCond(c, ints[r], c.IntLo, c.IntHi)
			case Float:
				return naiveCond(c, floats[r], c.FloLo, c.FloHi)
			}
			return naiveCond(c, strs[r], c.StrLo, c.StrHi)
		}
		onRaw, onDict := c.On(raw), c.On(dict)
		for r := range rows {
			if w := want(r); onRaw.At(r) != w || onDict.At(r) != w {
				t.Fatalf("%+v at row %d: raw %v, dict %v, want %v", c, r, onRaw.At(r), onDict.At(r), w)
			}
		}
		for lo := 0; lo < rows; lo += 64 {
			hi := min(lo+64, rows)
			for _, tb := range []*Table{raw, dict} {
				if c.mayMatch(ZoneOf(tb.Cols[col], lo, hi)) {
					continue
				}
				for r := lo; r < hi; r++ {
					if want(r) {
						t.Fatalf("%+v: mayMatch rules out rows [%d, %d), but row %d matches", c, lo, hi, r)
					}
				}
			}
		}
	}
}

// TestPredCondSound holds ZoneCond.On to the naive comparison over raw
// and dictionary columns, and zone pruning to never drop a row On
// accepts, over random columns and conditions.
func TestPredCondSound(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for range 2000 {
		checkPredCond(t, func() byte { return byte(rng.Intn(256)) })
	}
}
