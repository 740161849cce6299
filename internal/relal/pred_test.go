package relal

import (
	"fmt"
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

// TestPredFactories checks every IntVec, FloatVec and StrVec predicate
// factory, and Not, against the hand-written closure over Get: the
// selection Where produces must equal Filter's, on dense tables and on
// views, over dict and raw strings, serial and parallel.
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
				{"Int.Eq", k.Eq(3), func(i int) bool { return k.Get(i) == 3 }},
				{"Float.Lt", f.Lt(0.75), func(i int) bool { return f.Get(i) < 0.75 }},
				{"Float.Gt", f.Gt(1.25), func(i int) bool { return f.Get(i) > 1.25 }},
				{"Float.Ge", f.Ge(1.25), func(i int) bool { return f.Get(i) >= 1.25 }},
				{"Float.Between", f.Between(0.5, 1), func(i int) bool { return f.Get(i) >= 0.5 && f.Get(i) <= 1 }},
				{"Str.Eq", s.Eq("REG"), func(i int) bool { return s.Get(i) == "REG" }},
				{"Str.Ne", s.Ne("REG"), func(i int) bool { return s.Get(i) != "REG" }},
				{"Str.Lt", s.Lt("N"), func(i int) bool { return s.Get(i) < "N" }},
				{"Str.Le", s.Le("N"), func(i int) bool { return s.Get(i) <= "N" }},
				{"Str.Gt", s.Gt("AB"), func(i int) bool { return s.Get(i) > "AB" }},
				{"Str.Range", s.Range("AB", "REG"), func(i int) bool { return s.Get(i) >= "AB" && s.Get(i) < "REG" }},
				{"Str.Between", s.Between("AB", "REG"), func(i int) bool { return s.Get(i) >= "AB" && s.Get(i) <= "REG" }},
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
				p, q, r := k.Eq(3), s.Ne(""), PredFn(func(i int) bool { return f.Get(i) != 1 })
				want := e.Filter(tb, func(i int) bool { return p.At(i) && q.At(i) && r.At(i) })
				if got := e.Where(tb, p, q, r); !slices.Equal(got.sel(0), want.sel(0)) || want.NumRows() == 0 {
					t.Fatalf("%s: Where(p, q, r) selects %d rows, Filter(p∧q∧r) %d", name, got.NumRows(), want.NumRows())
				}
				if got := e.Where(tb); got.NumRows() != tb.NumRows() {
					t.Fatalf("%s: Where() keeps %d of %d rows", name, got.NumRows(), tb.NumRows())
				}

				// A conjunction that matches nothing is an empty selection,
				// not a nil one (nil means "every row" to a view).
				none := e.Where(tb, f.Lt(0.5), f.Gt(0.5), s.Eq("REG"))
				if none.sel(0) == nil || none.NumRows() != 0 || len(RowsOf(none)) != 0 {
					t.Fatalf("%s: empty conjunction yields %d rows (sel nil: %v)", name, none.NumRows(), none.sel(0) == nil)
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
