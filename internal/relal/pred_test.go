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
				{"Str.Ge", s.Ge("AB"), func(i int) bool { return s.Get(i) >= "AB" }},
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
					if got := e.Where(tb, c.pred); !slices.Equal(got.sel, want.sel) {
						t.Fatalf("%s: %s selects %d rows, closure %d", name, c.name, got.NumRows(), want.NumRows())
					}
					wantNot := e.Filter(tb, func(i int) bool { return !c.want(i) })
					if got := e.Where(tb, Not(c.pred)); !slices.Equal(got.sel, wantNot.sel) {
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
				if got := e.Where(tb, p, q, r); !slices.Equal(got.sel, want.sel) || want.NumRows() == 0 {
					t.Fatalf("%s: Where(p, q, r) selects %d rows, Filter(p∧q∧r) %d", name, got.NumRows(), want.NumRows())
				}
				if got := e.Where(tb); got.NumRows() != tb.NumRows() {
					t.Fatalf("%s: Where() keeps %d of %d rows", name, got.NumRows(), tb.NumRows())
				}

				// A conjunction that matches nothing is an empty selection,
				// not a nil one (nil means "every row" to a view).
				none := e.Where(tb, f.Lt(0.5), f.Gt(0.5), s.Eq("REG"))
				if none.sel == nil || none.NumRows() != 0 || len(RowsOf(none)) != 0 {
					t.Fatalf("%s: empty conjunction yields %d rows (sel nil: %v)", name, none.NumRows(), none.sel == nil)
				}
			}
		}
	}
}
