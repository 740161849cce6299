// Hash joins. Join, SemiJoin and AntiJoin build one read-only key table
// over the build (right) side:
//
//  1. Build: the group-by's groupTable numbers the build keys in
//     first-seen order — a slot array when the key span is dense, a map
//     otherwise (see groupKeys.table). Join then chains each row onto its
//     key's id in one serial pass from the last build row to the first:
//     head[id] leads to the key's first row, next[j] to the row after j.
//     Chains therefore run in build-row order. SemiJoin/AntiJoin need
//     only membership, so they build the groupTable alone.
//  2. Probe: the probe (left) side splits into morsels, each filling its
//     own index buffers; the buffers concatenate in morsel order, which
//     is probe-row order. Join walks each hit's chain (left-major match
//     order); SemiJoin/AntiJoin only ask whether the key is in the
//     table, through the row-selection loop Filter uses.
//  3. Compose: Join moves no cell. Its output holds both inputs' own
//     vectors, each read through its input's selection composed with the
//     matching index vector — one int32 pass per distinct input
//     selection, the index vector itself for a dense input column.
//
// One worker, or an input of one morsel, is the one-morsel case of the
// probe: runItems (sched.go) runs it inline.
package relal

import "fmt"

// joinMorselRows is the probe morsel size. It defaults to the
// scan-kernel morsel size; tests shrink it to exercise the multi-morsel
// concatenation on small randomized tables.
var joinMorselRows = MorselRows

// joinKey returns the column index of t's named join key. Hash-join keys
// are Int columns: every join the TPC-H plans run is on an integer key,
// so the table has one key type instead of a kernel per type.
func joinKey(t *Table, name string) int {
	c := t.Schema.Col(name)
	if t.Schema[c].Type != Int {
		panic(fmt.Sprintf("relal: join key %q of table %q is not Int", name, t.Name))
	}
	return c
}

// keyTable is the read-only key table of one join: tab numbers the build
// keys, head[id] is one more than the first logical build row with key
// id, and next[j] the next build row with row j's key, -1 at the end of a
// chain. A nil keyTable is an empty build side.
type keyTable struct {
	tab  *groupTable
	head []int32
	next []int32
}

// buildKeyTable builds the key table over t's Int column c.
func buildKeyTable(t *Table, c int) *keyTable {
	n := t.NumRows()
	if n == 0 {
		return nil
	}
	kt := &keyTable{tab: newGroupKeys(t, []int{c}).table(n), next: make([]int32, n)}
	for j := range kt.next {
		kt.next[j], _ = kt.tab.id(j) // the key's id until chained below
	}
	kt.head = make([]int32, kt.tab.n)
	for j := n - 1; j >= 0; j-- {
		id := kt.next[j]
		kt.next[j], kt.head[id] = kt.head[id]-1, int32(j)+1
	}
	return kt
}

// first returns the first build row with key k, or -1 for a miss.
func (kt *keyTable) first(k int64) int32 {
	if kt == nil {
		return -1
	}
	if id := kt.tab.find(k); id >= 0 {
		return kt.head[id] - 1
	}
	return -1
}

// joinSides returns left's key column and the index of right's: the
// probe side's key is checked first.
func joinSides(left, right *Table, leftKey, rightKey string) (IntVec, int) {
	lc := joinKey(left, leftKey)
	return IntVec{data: left.Cols[lc].Ints, sel: left.sel(lc)}, joinKey(right, rightKey)
}

// Join hash-joins left and right on leftKey = rightKey (inner join),
// producing the concatenated schema with right's key column retained
// (callers project as needed). Matches come out left-major: probe-row
// order, build-row order within a key. The output is a view over both
// inputs' vectors (no cell is copied) and is byte-identical at every
// pool size.
func (e *Exec) Join(left, right *Table, leftKey, rightKey string) *Table {
	lKeys, rc := joinSides(left, right, leftKey, rightKey)
	kt := buildKeyTable(right, rc)
	ln := left.NumRows()
	ls := make([][]int32, (ln+joinMorselRows-1)/joinMorselRows)
	rs := make([][]int32, len(ls))
	parallelMorsels(ln, joinMorselRows, e.workers(), func(m, lo, hi int) {
		var l, r []int32
		for i := lo; i < hi; i++ {
			for j := kt.first(lKeys.Get(i)); j >= 0; j = kt.next[j] {
				l = append(l, int32(i))
				r = append(r, j)
			}
		}
		ls[m], rs[m] = l, r
	})
	sch := make(Schema, 0, len(left.Schema)+len(right.Schema))
	sch = append(sch, left.Schema...)
	sch = append(sch, right.Schema...)
	cols := make([]*Vector, 0, len(sch))
	cols = append(cols, left.Cols...)
	cols = append(cols, right.Cols...)
	out := &Table{Name: left.Name + "⋈" + right.Name, Schema: sch, Cols: cols}
	sels, lSel := left.composeSels(nil, concatIdx(ls))
	sels, rSel := right.composeSels(sels, concatIdx(rs))
	out.sels, out.colSel = sels, append(lSel, rSel...)
	e.logJoin(left, right, out, leftKey)
	return out
}

// semiAnti implements SemiJoin (keep=true) and AntiJoin (keep=false) as
// zero-copy views over left: a row is selected when its key's presence
// among right's keys equals keep. An empty right side holds no key.
func (e *Exec) semiAnti(left, right *Table, leftKey, rightKey, suffix string, keep bool) *Table {
	lKeys, rc := joinSides(left, right, leftKey, rightKey)
	var keys *groupTable // right's keys; nil when right is empty
	if n := right.NumRows(); n > 0 {
		keys = newGroupKeys(right, []int{rc}).table(n)
		for j := range n {
			keys.id(j)
		}
	}
	sel := selectRows(left.NumRows(), joinMorselRows, e.workers(), func(i int) bool {
		return (keys != nil && keys.find(lKeys.Get(i)) >= 0) == keep
	})
	out := view(left, left.Name+suffix, sel)
	e.logJoin(left, right, out, leftKey)
	return out
}

// logJoin logs the join step of left and right that produced out.
func (e *Exec) logJoin(left, right, out *Table, key string) {
	e.Log.add(Step{
		Kind: StepJoin, Table: out.Name,
		LeftRows: left.NumRows(), RightRows: right.NumRows(), OutRows: out.NumRows(),
		JoinKey:  key,
		LeftBase: left.Base, RightBase: right.Base,
	}, left, right, out)
}

// SemiJoin returns left rows whose key appears in right (IN subquery).
func (e *Exec) SemiJoin(left, right *Table, leftKey, rightKey string) *Table {
	return e.semiAnti(left, right, leftKey, rightKey, "_semi", true)
}

// AntiJoin returns left rows whose key does not appear in right (NOT IN
// / NOT EXISTS).
func (e *Exec) AntiJoin(left, right *Table, leftKey, rightKey string) *Table {
	return e.semiAnti(left, right, leftKey, rightKey, "_anti", false)
}

// selectRows returns the logical rows in [0, n) that satisfy pred, in
// row order: each morsel of size rows fills its own buffer and the
// buffers concatenate in morsel order, so the selection vector is the
// same at every worker count. Filter and the semi/anti probe are both
// this loop.
func selectRows(n, size, workers int, pred func(i int) bool) []int32 {
	parts := make([][]int32, (n+size-1)/size)
	parallelMorsels(n, size, workers, func(m, lo, hi int) {
		var buf []int32
		for i := lo; i < hi; i++ {
			if pred(i) {
				buf = append(buf, int32(i))
			}
		}
		parts[m] = buf
	})
	return concatIdx(parts)
}

// gatherSlice returns xs's cells at the given indices, in order.
func gatherSlice[T any](xs []T, idx []int32) []T {
	out := make([]T, len(idx))
	for k, p := range idx {
		out[k] = xs[p]
	}
	return out
}

// gather returns a dense vector holding v's cells at the given physical
// indices, in order. Dict vectors gather their codes and keep sharing
// the dictionary — strings only materialize at output boundaries.
func (v *Vector) gather(idx []int32) *Vector {
	out := &Vector{Kind: v.Kind}
	switch v.Kind {
	case Int:
		out.Ints = gatherSlice(v.Ints, idx)
	case Float:
		out.Floats = gatherSlice(v.Floats, idx)
	default:
		if v.DictVals != nil {
			out.Dict = gatherSlice(v.Dict, idx)
			out.DictVals = v.DictVals
		} else {
			out.Strs = gatherSlice(v.Strs, idx)
		}
	}
	return out
}
