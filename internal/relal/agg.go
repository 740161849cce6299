// Grouped aggregation in two steps that share nothing but an []int32:
// groupIDs gives every logical row the id of its group, ids numbered in
// first-seen order; then each aggregate folds its input column into one
// slice indexed by group id, in a single pass over the rows in global
// row order. A group's values are therefore always added first row to
// last, whatever the worker count — the float bit-identity rule holds
// by construction, not by a merge that has to reproduce it.
package relal

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// AggSpec is one aggregate: Fn over the expression column Col (or "*"
// for COUNT(*)), output-named As.
type AggSpec struct {
	Fn  string // "sum", "avg", "count", "min", "max"
	Col string
	As  string
}

// maxDenseGroupSpan bounds the packed key space a flat slot array will
// cover. Beyond this a map wins on memory anyway.
const maxDenseGroupSpan = 4096

// groupKeys reads the group key of a physical row. When every key
// column is Int or dict-encoded and the product of the columns' value
// spans fits a uint64, the key packs into one mixed-radix integer
// (packed); otherwise it is the cells' bytes.
type groupKeys struct {
	cols   []*Vector
	packed bool
	lo     []uint64 // packed: per column, the value that maps to digit 0
	radix  []uint64 // packed: per column, the number of distinct digits
	span   uint64   // packed: product of radix — keys lie in [0, span)
}

// newGroupKeys inspects the key columns over t's selected rows and picks
// the packed encoding when it fits. t must have at least one row.
func newGroupKeys(t *Table, gidx []int) *groupKeys {
	k := &groupKeys{cols: make([]*Vector, len(gidx))}
	packable := true
	for j, gi := range gidx {
		c := t.Cols[gi]
		k.cols[j] = c
		packable = packable && (c.Kind == Int || c.DictVals != nil)
	}
	if !packable {
		return k
	}
	k.lo = make([]uint64, len(gidx))
	k.radix = make([]uint64, len(gidx))
	k.span = 1
	for j, c := range k.cols {
		width := uint64(len(c.DictVals)) - 1 // highest digit: hi − lo
		if c.Kind == Int {
			lo, hi := c.Ints[t.phys(0)], c.Ints[t.phys(0)]
			for i, n := 1, t.NumRows(); i < n; i++ {
				x := c.Ints[t.phys(i)]
				lo, hi = min(lo, x), max(hi, x)
			}
			// Wrapping arithmetic: MinInt64…MaxInt64 is MaxUint64.
			k.lo[j], width = uint64(lo), uint64(hi)-uint64(lo)
		}
		over, span := bits.Mul64(k.span, width+1)
		if width == math.MaxUint64 || over != 0 {
			return k
		}
		k.radix[j], k.span = width+1, span
	}
	k.packed = true
	return k
}

// pack returns the packed key of physical row p.
func (k *groupKeys) pack(p int32) uint64 {
	var key uint64
	for j, c := range k.cols {
		var digit uint64
		if c.Kind == Int {
			digit = uint64(c.Ints[p]) - k.lo[j]
		} else {
			digit = uint64(c.Dict[p])
		}
		key = key*k.radix[j] + digit
	}
	return key
}

// canonicalNaN is the one bit pattern every NaN key cell is folded to,
// so all NaNs form one group whatever their payload.
var canonicalNaN = math.Float64bits(math.NaN())

// appendBytes appends the byte key of physical row p: fixed-width cells
// and length-prefixed strings, so two different rows never encode alike.
// Floats are keyed by bit pattern: 0 and -0 stay apart.
func (k *groupKeys) appendBytes(buf []byte, p int32) []byte {
	for _, c := range k.cols {
		switch {
		case c.Kind == Int:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Ints[p]))
		case c.Kind == Float:
			b := math.Float64bits(c.Floats[p])
			if c.Floats[p] != c.Floats[p] {
				b = canonicalNaN
			}
			buf = binary.LittleEndian.AppendUint64(buf, b)
		case c.DictVals != nil:
			buf = binary.LittleEndian.AppendUint32(buf, c.Dict[p])
		default:
			buf = binary.AppendUvarint(buf, uint64(len(c.Strs[p])))
			buf = append(buf, c.Strs[p]...)
		}
	}
	return buf
}

// groupTable numbers the distinct keys it is shown in first-seen order.
// Exactly one of the three representations is live, chosen from the key
// columns: a flat slot array for a small packed key space, a map of
// packed keys for a larger one, a map of byte keys otherwise.
type groupTable struct {
	k     *groupKeys
	slots []int32 // packed key → id+1 (0 = unseen)
	ints  map[uint64]int32
	strs  map[string]int32
	buf   []byte
	n     int32 // ids handed out so far
}

// table returns an empty group table over k's keys.
func (k *groupKeys) table() *groupTable {
	g := &groupTable{k: k}
	switch {
	case !k.packed:
		g.strs = make(map[string]int32)
	case k.span <= maxDenseGroupSpan:
		g.slots = make([]int32, k.span)
	default:
		g.ints = make(map[uint64]int32)
	}
	return g
}

// id returns the group id of physical row p's key, and whether this is
// the first time the table sees that key.
func (g *groupTable) id(p int32) (gid int32, fresh bool) {
	switch {
	case g.slots != nil:
		slot := &g.slots[g.k.pack(p)]
		if *slot != 0 {
			return *slot - 1, false
		}
		*slot = g.n + 1
	case g.ints != nil:
		key := g.k.pack(p)
		if id, ok := g.ints[key]; ok {
			return id, false
		}
		g.ints[key] = g.n
	default:
		g.buf = g.k.appendBytes(g.buf[:0], p)
		// The literal string(g.buf) index lets the compiler look the key
		// up without allocating; only a fresh key is copied.
		if id, ok := g.strs[string(g.buf)]; ok {
			return id, false
		}
		g.strs[string(g.buf)] = g.n
	}
	g.n++
	return g.n - 1, true
}

// groupIDs assigns every logical row of t its group id — gid[i], ids
// numbered in first-seen order — and returns each group's first
// physical row. Each morsel numbers its own groups; a global table,
// shown only each morsel's first rows in morsel order, renumbers them
// (all rows of morsel m precede morsel m+1's, so that order is the
// global first-seen order). One worker is the one-morsel case.
func groupIDs(t *Table, gidx []int, workers int) (gid, first []int32) {
	n := t.NumRows()
	if n == 0 {
		return nil, nil
	}
	gid = make([]int32, n)
	if len(gidx) == 0 {
		return gid, []int32{t.phys(0)}
	}
	k := newGroupKeys(t, gidx)
	size := MorselRows
	if workers <= 1 {
		size = n
	}
	firsts := make([][]int32, (n+size-1)/size)
	parallelMorselsSize(n, size, workers, func(m, lo, hi int) {
		tab := k.table()
		for i := lo; i < hi; i++ {
			p := t.phys(i)
			id, fresh := tab.id(p)
			if fresh {
				firsts[m] = append(firsts[m], p)
			}
			gid[i] = id // morsel-local until remapped below
		}
	})
	if len(firsts) == 1 {
		return gid, firsts[0]
	}
	global := k.table()
	remaps := make([][]int32, len(firsts))
	for m, ps := range firsts {
		remaps[m] = make([]int32, len(ps))
		for lid, p := range ps {
			id, fresh := global.id(p)
			if fresh {
				first = append(first, p)
			}
			remaps[m][lid] = id
		}
	}
	parallelMorselsSize(n, size, workers, func(m, lo, hi int) {
		for i := lo; i < hi; i++ {
			gid[i] = remaps[m][gid[i]]
		}
	})
	return gid, first
}

// foldNum folds the numeric column xs (read through sel) into one
// float64 per group: the sum, or the min/max seeded with ±Inf so a NaN
// cell never wins and an infinite cell is returned as itself.
func foldNum[T int64 | float64](fn string, xs []T, sel, gid []int32, groups int) []float64 {
	acc := make([]float64, groups)
	switch fn {
	case "min":
		for g := range acc {
			acc[g] = math.Inf(1)
		}
		for i, g := range gid {
			if f := float64(keyAt(xs, sel, i)); f < acc[g] {
				acc[g] = f
			}
		}
	case "max":
		for g := range acc {
			acc[g] = math.Inf(-1)
		}
		for i, g := range gid {
			if f := float64(keyAt(xs, sel, i)); f > acc[g] {
				acc[g] = f
			}
		}
	default:
		for i, g := range gid {
			acc[g] += float64(keyAt(xs, sel, i))
		}
	}
	return acc
}

// foldStr folds a Str column into each group's min or max. Every group
// is seeded from its own first row, so "" is a legitimate minimum, not a
// sentinel.
func foldStr(fn string, col *Vector, t *Table, gid, first []int32) []string {
	acc := make([]string, len(first))
	for g, p := range first {
		acc[g] = col.StrAt(p)
	}
	for i, g := range gid {
		s := col.StrAt(t.phys(i))
		if fn == "min" && s < acc[g] || fn == "max" && s > acc[g] {
			acc[g] = s
		}
	}
	return acc
}

// fold computes one aggregate's output column (Aggregate has checked fn
// against the input's type). counts is the shared per-group row count;
// every count column gets its own copy.
func fold(fn string, in *Vector, t *Table, gid, first []int32, counts []int64) *Vector {
	switch {
	case fn == "count":
		return IntsV(slices.Clone(counts))
	case in.Kind == Str:
		return StrsV(foldStr(fn, in, t, gid, first))
	}
	var acc []float64
	if in.Kind == Int {
		acc = foldNum(fn, in.Ints, t.sel, gid, len(first))
	} else {
		acc = foldNum(fn, in.Floats, t.sel, gid, len(first))
	}
	if fn == "avg" {
		for g := range acc {
			acc[g] /= float64(counts[g])
		}
	}
	return FloatsV(acc)
}

// Aggregate groups t by the named columns and computes aggs, logging
// the step. Group columns precede aggregates in the output schema and
// keep their encoding (a dict-encoded key stays dict-encoded over the
// same dictionary, so a downstream Sort on it still compares ints);
// groups are emitted in first-seen order. Row → group-id assignment
// runs per morsel on the worker pool; the folds run side by side, one
// aggregate each — never split across the rows of one fold, which would
// change the addition order.
func (e *Exec) Aggregate(t *Table, groupBy []string, aggs []AggSpec) *Table {
	gidx := make([]int, len(groupBy))
	sch := make(Schema, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		gidx[i] = t.Schema.Col(g)
		sch = append(sch, t.Schema[gidx[i]])
	}
	ins := make([]*Vector, len(aggs)) // nil for "*"
	for i, a := range aggs {
		if a.Col != "*" {
			ins[i] = t.Cols[t.Schema.Col(a.Col)]
		}
		typ := Float
		switch a.Fn {
		case "count":
			typ = Int
		case "sum", "avg", "min", "max":
			if in := ins[i]; in == nil || in.Kind == Str && (a.Fn == "sum" || a.Fn == "avg") {
				panic("relal: no " + a.Fn + " over column " + a.Col)
			} else if in.Kind == Str {
				typ = Str
			}
		default:
			panic("relal: unknown aggregate " + a.Fn)
		}
		sch = append(sch, Column{Name: a.As, Type: typ})
	}
	w := e.workers()
	if t.NumRows() <= MorselRows {
		w = 1
	}
	gid, first := groupIDs(t, gidx, w)
	counts := make([]int64, len(first))
	for _, g := range gid {
		counts[g]++
	}
	cols := make([]*Vector, len(sch))
	for k, gi := range gidx {
		cols[k] = t.Cols[gi].gather(first, w)
	}
	parallelRanges(len(aggs), w, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cols[len(gidx)+i] = fold(aggs[i].Fn, ins[i], t, gid, first, counts)
		}
	})
	out := &Table{Name: t.Name + "_agg", Schema: sch, Cols: cols}
	e.Log.Add(Step{
		Kind: StepAgg, Table: t.Name,
		LeftRows: t.NumRows(), LeftWidth: t.AvgRowBytes(),
		OutRows: out.NumRows(), OutWidth: out.AvgRowBytes(),
		LeftBase: BaseOf(t),
	})
	return out
}
