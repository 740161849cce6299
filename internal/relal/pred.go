package relal

// Compiled column predicates. A Pred is a per-row closure compiled
// against a column once. Range conditions are spelled as ZoneCond
// (scan.go) and compiled by ZoneCond.On, so the Where that applies a
// pushed condition tests the value the scan pruned with; the StrVec
// factories in dict.go (Ne, In, HasPrefix, Before) cover the string
// tests no zone map can prune. On a dict column a string comparison
// becomes a code comparison. Exec.Where filters by a conjunction of
// Preds; Exec.Filter keeps accepting plain closures; Pred.At adapts a
// Pred wherever a per-row function is composed by hand.

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

// none is the predicate no row satisfies.
var none = Pred{at: func(int) bool { return false }}

// within tests lo <= x <= hi over a selection-aware numeric column.
func within[T int64 | float64](data []T, sel []int32, lo, hi T) Pred {
	if sel == nil {
		return Pred{at: func(i int) bool { x := data[i]; return x >= lo && x <= hi }}
	}
	return Pred{at: func(i int) bool { x := data[sel[i]]; return x >= lo && x <= hi }}
}
