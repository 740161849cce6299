package relal

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// lateTable builds a randomized input of n rows: an Int key in [0, 24),
// a Float with plateaus, a raw Str and a dict Str, each column named
// with prefix.
func lateTable(rng *rand.Rand, prefix string, n int) *Table {
	ks, fs := make([]int64, n), make([]float64, n)
	ss, ds := make([]string, n), make([]string, n)
	for i := range ks {
		ks[i] = rng.Int63n(24)
		fs[i] = float64(rng.Intn(40))/4 - 3
		ss[i] = dictPool[rng.Intn(len(dictPool))]
		ds[i] = dictPool[rng.Intn(len(dictPool))]
	}
	return NewTable(prefix, Schema{
		{Name: prefix + "k", Type: Int}, {Name: prefix + "f", Type: Float},
		{Name: prefix + "s", Type: Str}, {Name: prefix + "d", Type: Str},
	}, IntsV(ks), FloatsV(fs), StrsV(ss), EncodeDict(ds))
}

// colOf names the r-th column (mod their count) of t whose type is one
// of kinds; ok is false when t has none.
func colOf(t *Table, r int, kinds ...Type) (name string, ok bool) {
	var names []string
	for _, c := range t.Schema {
		if slices.Contains(kinds, c.Type) {
			names = append(names, c.Name)
		}
	}
	if len(names) == 0 {
		return "", false
	}
	return names[r%len(names)], true
}

// lateOp is one step of a random operator chain. in is applied to every
// table the step builds besides its output: the identity in the late
// run, Compacted in the eager one.
type lateOp struct {
	kind string
	run  func(e *Exec, t *Table, in func(*Table) *Table) *Table
}

// randomLateOp draws chain step s. Every choice is drawn here, and a
// column is picked by position among t's columns of a type, so both runs
// of a chain execute the same plan over the same schemas.
func randomLateOp(rng *rand.Rand, s int) lateOp {
	r1, r2, r3 := rng.Intn(1<<20), rng.Intn(1<<20), rng.Intn(1<<20)
	seed := rng.Int63()
	p := fmt.Sprintf("j%d_", s)
	// build returns a fresh build side: dense, a filtered view, or a
	// join output.
	build := func(e *Exec, in func(*Table) *Table) *Table {
		rr := rand.New(rand.NewSource(seed))
		right := lateTable(rr, p, 10+rr.Intn(30))
		switch r3 % 3 {
		case 1:
			f := right.FloatCol(p + "f")
			right = e.Filter(right, func(i int) bool { return f.Get(i) > -1 })
		case 2:
			right = e.Join(right, lateTable(rr, p+"o", 30), p+"k", p+"ok")
		}
		return in(right)
	}
	switch kind := rng.Intn(9); kind {
	case 0, 1:
		return lateOp{"join", func(e *Exec, t *Table, in func(*Table) *Table) *Table {
			key, ok := colOf(t, r1, Int)
			if !ok {
				return t
			}
			return e.Join(t, build(e, in), key, p+"k")
		}}
	case 2:
		return lateOp{"semi/anti", func(e *Exec, t *Table, in func(*Table) *Table) *Table {
			key, ok := colOf(t, r1, Int)
			if !ok {
				return t
			}
			if r2%2 == 0 {
				return e.SemiJoin(t, build(e, in), key, p+"k")
			}
			return e.AntiJoin(t, build(e, in), key, p+"k")
		}}
	case 3:
		return lateOp{"filter", func(e *Exec, t *Table, in func(*Table) *Table) *Table {
			c := t.Schema[r1%len(t.Schema)]
			switch c.Type {
			case Int:
				v := t.IntCol(c.Name)
				return e.Filter(t, func(i int) bool { return v.Get(i)%3 != 1 })
			case Float:
				return e.Where(t, FloatGreater(c.Name, -1).On(t))
			}
			if r2%2 == 0 {
				return e.Where(t, StrLess(c.Name, "N").On(t))
			}
			v := t.StrCol(c.Name)
			return e.Filter(t, func(i int) bool { return len(v.Get(i))%2 == 0 })
		}}
	case 4:
		return lateOp{"extend", func(e *Exec, t *Table, in func(*Table) *Table) *Table {
			c, name := t.Schema[r1%len(t.Schema)], fmt.Sprintf("x%d", s)
			switch c.Type {
			case Int:
				v := t.IntCol(c.Name)
				return e.ExtendInt(t, name, func(i int) int64 { return v.Get(i)*2 + 1 })
			case Float:
				v := t.FloatCol(c.Name)
				return e.ExtendFloat(t, name, func(i int) float64 { return v.Get(i) * 1.5 })
			}
			v := t.StrCol(c.Name)
			return e.ExtendStr(t, name, func(i int) string { return v.Get(i) + "x" })
		}}
	case 5:
		return lateOp{"sort/topk/limit", func(e *Exec, t *Table, in func(*Table) *Table) *Table {
			keys := []OrderSpec{{Col: t.Schema[r1%len(t.Schema)].Name, Desc: r2%2 == 0},
				{Col: t.Schema[r2%len(t.Schema)].Name}}
			switch n := r2 % (t.NumRows() + 2); r3 % 3 {
			case 0:
				return e.Sort(t, keys...)
			case 1:
				return e.TopK(t, n, keys...)
			default:
				return e.Limit(t, n)
			}
		}}
	case 6:
		return lateOp{"project", func(e *Exec, t *Table, in func(*Table) *Table) *Table {
			var cols []string
			for j, c := range rand.New(rand.NewSource(seed)).Perm(len(t.Schema)) {
				if j == 0 || r1>>j&1 == 1 {
					cols = append(cols, t.Schema[c].Name)
				}
			}
			if key, ok := colOf(t, r2, Int); ok && !slices.Contains(cols, key) {
				cols = append(cols, key)
			}
			return e.Project(t, cols...)
		}}
	case 7:
		return lateOp{"aggregate", func(e *Exec, t *Table, in func(*Table) *Table) *Table {
			var groups []string
			for j := 0; j < r3%3; j++ {
				if g, ok := colOf(t, r1+j, Int, Str); ok && !slices.Contains(groups, g) {
					groups = append(groups, g)
				}
			}
			aggs := []AggSpec{{Fn: "count", Col: "*", As: fmt.Sprintf("n%d", s)}}
			if c, ok := colOf(t, r2, Int, Float); ok {
				fn := []string{"sum", "avg", "min", "max"}[r2%4]
				aggs = append(aggs, AggSpec{Fn: fn, Col: c, As: fmt.Sprintf("a%d", s)})
			}
			return e.Aggregate(t, groups, aggs)
		}}
	}
	return lateOp{"compacted/concat", func(e *Exec, t *Table, in func(*Table) *Table) *Table {
		if r1%2 == 0 {
			return t.Compacted()
		}
		half := in(e.Filter(t, func(i int) bool { return i%2 == 0 }))
		return Concat(t.Name, t.Schema, t, half)
	}}
}

// runLateChain runs ops over in at the given worker count. The eager run
// compacts every intermediate, which is what the operators produced
// before joins composed selections.
func runLateChain(ops []lateOp, in *Table, workers int, eager bool) (out *Table, steps []Step, maxSels int) {
	e := &Exec{Parallelism: workers}
	fix := func(t *Table) *Table { return t }
	if eager {
		fix = (*Table).Compacted
	}
	out = fix(in)
	for _, op := range ops {
		out = fix(op.run(e, out, fix))
		maxSels = max(maxSels, len(out.sels))
	}
	return out, e.Log.Widths(), maxSels
}

// TestJoinLateColumnsDifferential runs random chains of at least three
// operators — joins of join outputs, filters, semi/anti joins,
// extensions, sorts, top-K, limits, projections, aggregates, compaction
// and concatenation — over inputs mixing Int, Float, raw and dict Str
// columns, and holds each chain to the same chain run on Compacted()
// intermediates: the same rows, and the same logged steps field for
// field (the widths Hive and PDW replay), at every worker count, with the
// join and top-K morsels shrunk.
func TestJoinLateColumnsDifferential(t *testing.T) {
	shrinkJoinMorsels(t, 16)
	shrinkSortMorsels(t, 16)
	rng := rand.New(rand.NewSource(29))
	kinds := map[string]bool{}
	mixed := 0
	for chain := 0; chain < 80; chain++ {
		ops := make([]lateOp, 3+rng.Intn(4))
		for s := range ops {
			ops[s] = randomLateOp(rng, s)
			kinds[ops[s].kind] = true
		}
		in := lateTable(rand.New(rand.NewSource(int64(chain))), "a_", 50+rng.Intn(250))
		want, wantSteps, _ := runLateChain(ops, in, 1, true)
		for _, workers := range diffWorkers() {
			for _, eager := range []bool{false, true} {
				got, steps, sels := runLateChain(ops, in, workers, eager)
				if sels >= 3 {
					mixed++
				}
				name := fmt.Sprintf("chain %d workers=%d eager=%v", chain, workers, eager)
				if err := sameRows(RowsOf(got), RowsOf(want)); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(steps, wantSteps) {
					for i := range min(len(steps), len(wantSteps)) {
						if steps[i] != wantSteps[i] {
							t.Fatalf("%s: step %d\n got %+v\nwant %+v", name, i, steps[i], wantSteps[i])
						}
					}
					t.Fatalf("%s: %d steps, want %d", name, len(steps), len(wantSteps))
				}
			}
		}
	}
	if len(kinds) != 8 || mixed == 0 {
		t.Fatalf("chains drew %d of 8 operator kinds; %d late runs reached three selections", len(kinds), mixed)
	}
}

// TestJoinMovesNoCells: a join's output columns are its inputs' own
// vectors — over a filtered probe side, and again over a join output —
// and extending a view appends a vector without replacing the others.
func TestJoinMovesNoCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	left, right, third := lateTable(rng, "l", 60), lateTable(rng, "r", 40), lateTable(rng, "t", 30)
	e := &Exec{}
	lf := left.FloatCol("lf")
	view := e.Filter(left, func(i int) bool { return lf.Get(i) > 0 })
	out := e.Join(e.Join(view, right, "lk", "rk"), third, "rk", "tk")
	if out.NumRows() == 0 {
		t.Fatal("empty join output")
	}
	want := slices.Concat(left.Cols, right.Cols, third.Cols)
	for c, v := range out.Cols {
		if v != want[c] {
			t.Errorf("join column %q is a copy, not its input's vector", out.Schema[c].Name)
		}
	}
	ext := e.ExtendInt(out, "x", func(i int) int64 { return int64(i) })
	for c, v := range out.Cols {
		if ext.Cols[c] != v {
			t.Errorf("extend replaced column %q", out.Schema[c].Name)
		}
	}
}
