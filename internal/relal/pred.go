package relal

// Compiled column predicates. The typed accessor factories (StrVec.Eq,
// FloatVec.Between, …) return a Pred: a per-row closure compiled against
// the accessor once (a string comparison becomes a code comparison on a
// dict column). Exec.Where filters by a conjunction of them; Exec.Filter
// keeps accepting plain closures; Pred.At adapts a Pred wherever a
// per-row function is composed by hand.

// Pred is a compiled predicate over one table's rows.
type Pred struct {
	at func(i int) bool
}

// PredFn wraps a hand-written per-row closure as a Pred.
func PredFn(fn func(i int) bool) Pred { return Pred{at: fn} }

// At evaluates the predicate at logical row i — the adapter for
// composing Preds inside hand-written closures.
func (p Pred) At(i int) bool { return p.at(i) }

// Not negates p.
func Not(p Pred) Pred {
	return Pred{at: func(i int) bool { return !p.at(i) }}
}

// Where returns the rows of t satisfying every pred, as a zero-copy
// view — Filter's conjunction form.
func (e *Exec) Where(t *Table, preds ...Pred) *Table {
	fns := make([]func(i int) bool, len(preds))
	for j, p := range preds {
		fns[j] = p.at
	}
	return e.Filter(t, andPreds(fns))
}

func andPreds(ps []func(i int) bool) func(i int) bool {
	switch len(ps) {
	case 0:
		return func(int) bool { return true }
	case 1:
		return ps[0]
	}
	return func(i int) bool {
		for _, p := range ps {
			if !p(i) {
				return false
			}
		}
		return true
	}
}

// The IntVec/FloatVec factories below mirror the StrVec ones in
// dict.go: they compile a value predicate against the accessor once.
// There is one per comparison some TPC-H plan makes.

// Eq returns a predicate for Get(i) == x.
func (v IntVec) Eq(x int64) Pred {
	data, sel := v.data, v.sel
	if sel == nil {
		return Pred{at: func(i int) bool { return data[i] == x }}
	}
	return Pred{at: func(i int) bool { return data[sel[i]] == x }}
}

func (v FloatVec) pred(test func(x float64) bool) Pred {
	data, sel := v.data, v.sel
	if sel == nil {
		return Pred{at: func(i int) bool { return test(data[i]) }}
	}
	return Pred{at: func(i int) bool { return test(data[sel[i]]) }}
}

// Lt returns a predicate for Get(i) < x.
func (v FloatVec) Lt(x float64) Pred { return v.pred(func(y float64) bool { return y < x }) }

// Gt returns a predicate for Get(i) > x.
func (v FloatVec) Gt(x float64) Pred { return v.pred(func(y float64) bool { return y > x }) }

// Ge returns a predicate for Get(i) >= x.
func (v FloatVec) Ge(x float64) Pred { return v.pred(func(y float64) bool { return y >= x }) }

// Between returns a predicate for lo <= Get(i) <= hi (both inclusive).
func (v FloatVec) Between(lo, hi float64) Pred {
	return v.pred(func(y float64) bool { return y >= lo && y <= hi })
}
