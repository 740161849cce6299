// Grouped aggregation in two steps that share nothing but an []int32:
// groupIDs gives every logical row the id of its group, ids numbered in
// first-seen order; then each aggregate folds its input column into one
// slice indexed by group id, in a single pass over the rows in global
// row order. A group's values are therefore always added first row to
// last, whatever the worker count — the float bit-identity rule holds
// by construction, not by a merge that has to reproduce it. groupIDs
// numbers runs of an ordered Int key column (lineitem arrives clustered
// on l_orderkey) without a table, and hashes every other key.
package relal

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// AggSpec is one aggregate: Fn over the expression column Col (or "*"
// for COUNT(*)), output-named As. Every Fn but count and first needs an
// Int or Float column; first is the cell of the group's first row, of
// any type and encoding.
type AggSpec struct {
	Fn  string // "sum", "avg", "count", "min", "max", "first"
	Col string
	As  string
}

// A groupTable takes a flat slot array when the packed key space spans
// at most maxDenseGroupSpan keys, or slotsPerRow keys per row it will be
// shown: past that a map wins on memory.
const (
	maxDenseGroupSpan = 4096
	slotsPerRow       = 8
)

// maxOrderedRun bounds a lead value's run beside other key columns: each
// row is compared with every group its run has opened (a TPC-H order has
// at most 7 lines).
const maxOrderedRun = 64

// groupKeys reads the group key of a logical row, each key column
// through its own selection. When every key column is Int or
// dict-encoded and the product of the columns' value spans fits a
// uint64, the key packs into one mixed-radix integer (packed); otherwise
// it is the cells' bytes. When some Int key column never decreases over
// the rows, that column leads and ids are numbered run by run instead.
type groupKeys struct {
	cols   []*Vector
	sels   [][]int32
	lead   int // index of the ordered lead column, or -1
	packed bool
	lo     []uint64 // packed: per column, the value that maps to digit 0
	radix  []uint64 // packed: per column, the number of distinct digits
	span   uint64   // packed: product of radix — keys lie in [0, span)
}

// newGroupKeys inspects the key columns over t's selected rows — one
// pass per Int column takes its min, max, order and longest run — and
// picks the lead column, and the packed encoding when it fits. t must
// have at least one row.
func newGroupKeys(t *Table, gidx []int) *groupKeys {
	n := len(gidx)
	k := &groupKeys{cols: make([]*Vector, n), sels: make([][]int32, n), lead: -1,
		lo: make([]uint64, n), radix: make([]uint64, n), span: 1}
	packable, rows := true, t.NumRows()
	leadRun := math.MaxInt
	for j, gi := range gidx {
		c := t.Cols[gi]
		k.cols[j], k.sels[j] = c, t.sel(gi)
		width := uint64(len(c.DictVals)) - 1 // highest digit: hi − lo
		if c.Kind == Int {
			sel := k.sels[j]
			lo := keyAt(c.Ints, sel, 0)
			hi, prev, start, run, asc := lo, lo, 0, 0, true
			for i := 1; i < rows; i++ {
				x := keyAt(c.Ints, sel, i)
				lo, hi = min(lo, x), max(hi, x)
				if x != prev {
					asc = asc && x > prev
					run = max(run, i-start)
					prev, start = x, i
				}
			}
			run = max(run, rows-start)
			if asc && run < leadRun && (n == 1 || run <= maxOrderedRun) {
				k.lead, leadRun = j, run
			}
			// Wrapping arithmetic: MinInt64…MaxInt64 is MaxUint64.
			k.lo[j], width = uint64(lo), uint64(hi)-uint64(lo)
		} else if c.DictVals == nil {
			packable = false
			continue
		}
		over, span := bits.Mul64(k.span, width+1)
		packable = packable && width != math.MaxUint64 && over == 0
		k.radix[j], k.span = width+1, span
	}
	k.packed = packable
	return k
}

// pack returns the packed key of logical row i.
func (k *groupKeys) pack(i int) uint64 {
	var key uint64
	for j, c := range k.cols {
		var digit uint64
		if c.Kind == Int {
			digit = uint64(keyAt(c.Ints, k.sels[j], i)) - k.lo[j]
		} else {
			digit = uint64(keyAt(c.Dict, k.sels[j], i))
		}
		key = key*k.radix[j] + digit
	}
	return key
}

// canonicalNaN is the one bit pattern every NaN key cell is folded to,
// so all NaNs form one group whatever their payload.
var canonicalNaN = math.Float64bits(math.NaN())

// appendBytes appends the byte key of logical row i: fixed-width cells
// and length-prefixed strings, so two different rows never encode alike.
// Floats are keyed by bit pattern: 0 and -0 stay apart.
func (k *groupKeys) appendBytes(buf []byte, i int) []byte {
	for j, c := range k.cols {
		p := rowAt(k.sels[j], i)
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

// sameRest reports whether logical rows a and b agree on every key
// column but the lead, under appendBytes' equality (floats by bit
// pattern, every NaN one value).
func (k *groupKeys) sameRest(a, b int) bool {
	for j, c := range k.cols {
		if j == k.lead {
			continue
		}
		pa, pb := rowAt(k.sels[j], a), rowAt(k.sels[j], b)
		var same bool
		switch {
		case c.Kind == Int:
			same = c.Ints[pa] == c.Ints[pb]
		case c.Kind == Float:
			x, y := c.Floats[pa], c.Floats[pb]
			same = math.Float64bits(x) == math.Float64bits(y) || x != x && y != y
		case c.DictVals != nil:
			same = c.Dict[pa] == c.Dict[pb]
		default:
			same = c.Strs[pa] == c.Strs[pb]
		}
		if !same {
			return false
		}
	}
	return true
}

// runIDs fills gid in one serial pass when the lead column never
// decreases: a new lead value opens a run, and a row joins the group of
// its run whose other key cells equal its own, or opens the next. All
// rows of a key share one run, so the ids are first-seen order. It
// returns each group's first logical row.
func (k *groupKeys) runIDs(gid []int32) (first []int32) {
	lead, sel := k.cols[k.lead].Ints, k.sels[k.lead]
	prev, open := keyAt(lead, sel, 0), 0 // open: the run's first group
	for i := range gid {
		if x := keyAt(lead, sel, i); x != prev || i == 0 {
			prev, open = x, len(first)
		}
		g := open
		for g < len(first) && !(len(k.cols) == 1 || k.sameRest(int(first[g]), i)) {
			g++
		}
		if g == len(first) {
			first = append(first, int32(i))
		}
		gid[i] = int32(g)
	}
	return first
}

// groupTable numbers the distinct keys it is shown in first-seen order.
// Exactly one of the three representations is live, chosen from the key
// columns and the number of rows: a flat slot array for a dense packed
// key space, a map of packed keys for a sparse one, a map of byte keys
// otherwise. The group-by and the join's key table both number keys
// with it.
type groupTable struct {
	k     *groupKeys
	slots []int32 // packed key → id+1 (0 = unseen)
	ints  map[uint64]int32
	strs  map[string]int32
	buf   []byte
	n     int32 // ids handed out so far
}

// table returns an empty group table over k's keys for a caller that
// will show it at most rows rows.
func (k *groupKeys) table(rows int) *groupTable {
	g := &groupTable{k: k}
	switch {
	case !k.packed:
		g.strs = make(map[string]int32)
	case k.span <= max(maxDenseGroupSpan, slotsPerRow*uint64(rows)):
		g.slots = make([]int32, k.span)
	default:
		g.ints = make(map[uint64]int32)
	}
	return g
}

// id returns the group id of logical row i's key, and whether this is
// the first time the table sees that key.
func (g *groupTable) id(i int) (gid int32, fresh bool) {
	switch {
	case g.slots != nil:
		slot := &g.slots[g.k.pack(i)]
		if *slot != 0 {
			return *slot - 1, false
		}
		*slot = g.n + 1
	case g.ints != nil:
		key := g.k.pack(i)
		if id, ok := g.ints[key]; ok {
			return id, false
		}
		g.ints[key] = g.n
	default:
		g.buf = g.k.appendBytes(g.buf[:0], i)
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

// find returns the id of key x in a table over one Int key column, or
// -1 if the table has not seen it. It writes nothing, so concurrent
// probes may share the table.
func (g *groupTable) find(x int64) int32 {
	id, ok := int32(-1), true
	switch key := uint64(x) - g.k.lo[0]; {
	case g.strs != nil: // the span wraps: the key is the cell's 8 bytes
		id, ok = g.strs[string(binary.LittleEndian.AppendUint64(make([]byte, 0, 8), uint64(x)))]
	case key >= g.k.span:
	case g.slots != nil:
		id = g.slots[key] - 1
	default:
		id, ok = g.ints[key]
	}
	if !ok {
		return -1
	}
	return id
}

// groupIDs assigns every logical row of t its group id — gid[i], ids
// numbered in first-seen order — and returns each group's first
// logical row. With a lead column, runIDs numbers the groups serially
// at any worker count; otherwise hashIDs does, per morsel. Both give the
// same gid and first.
func groupIDs(t *Table, gidx []int, workers int) (gid, first []int32) {
	n := t.NumRows()
	if n == 0 {
		return nil, nil
	}
	gid = make([]int32, n)
	if len(gidx) == 0 {
		return gid, []int32{0}
	}
	k := newGroupKeys(t, gidx)
	if k.lead >= 0 {
		return gid, k.runIDs(gid)
	}
	return gid, k.hashIDs(gid, workers)
}

// hashIDs fills gid and returns each group's first logical row: each
// morsel numbers its own groups; a global table, shown only each
// morsel's first rows in morsel order, renumbers them (all rows of
// morsel m precede morsel m+1's, so that order is the global first-seen
// order). One worker is the one-morsel case.
func (k *groupKeys) hashIDs(gid []int32, workers int) (first []int32) {
	n := len(gid)
	size := MorselRows
	if workers <= 1 {
		size = n
	}
	firsts := make([][]int32, (n+size-1)/size)
	parallelMorsels(n, size, workers, func(m, lo, hi int) {
		tab := k.table(size)
		for i := lo; i < hi; i++ {
			id, fresh := tab.id(i)
			if fresh {
				firsts[m] = append(firsts[m], int32(i))
			}
			gid[i] = id // morsel-local until remapped below
		}
	})
	if len(firsts) == 1 {
		return firsts[0]
	}
	global := k.table(n)
	remaps := make([][]int32, len(firsts))
	for m, ps := range firsts {
		remaps[m] = make([]int32, len(ps))
		for lid, p := range ps {
			id, fresh := global.id(int(p))
			if fresh {
				first = append(first, p)
			}
			remaps[m][lid] = id
		}
	}
	parallelMorsels(n, size, workers, func(m, lo, hi int) {
		for i := lo; i < hi; i++ {
			gid[i] = remaps[m][gid[i]]
		}
	})
	return first
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

// gatherAt returns in's cells at the logical rows rows, read through sel.
func gatherAt(in *Vector, sel, rows []int32) *Vector {
	if sel != nil {
		rows = gatherSlice(sel, rows)
	}
	return in.gather(rows)
}

// fold computes one aggregate's output column from the input vector in,
// read through sel (Aggregate has checked fn against the input's type).
// first is each group's first logical row; counts is the shared
// per-group row count, and every count column gets its own copy.
func fold(fn string, in *Vector, sel, gid, first []int32, counts []int64) *Vector {
	switch fn {
	case "count":
		return IntsV(slices.Clone(counts))
	case "first":
		return gatherAt(in, sel, first)
	}
	var acc []float64
	if in.Kind == Int {
		acc = foldNum(fn, in.Ints, sel, gid, len(counts))
	} else {
		acc = foldNum(fn, in.Floats, sel, gid, len(counts))
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
	inSels := make([][]int32, len(aggs))
	for i, a := range aggs {
		if a.Col != "*" {
			c := t.Schema.Col(a.Col)
			ins[i], inSels[i] = t.Cols[c], t.sel(c)
		}
		typ := Float
		switch a.Fn {
		case "count":
			typ = Int
		case "first":
			if ins[i] == nil {
				panic("relal: no first over *")
			}
			typ = ins[i].Kind
		case "sum", "avg", "min", "max":
			if in := ins[i]; in == nil || in.Kind == Str {
				panic("relal: no " + a.Fn + " over column " + a.Col)
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
		cols[k] = gatherAt(t.Cols[gi], t.sel(gi), first)
	}
	runItems(len(aggs), w, func(i int) {
		cols[len(gidx)+i] = fold(aggs[i].Fn, ins[i], inSels[i], gid, first, counts)
	})
	out := &Table{Name: t.Name + "_agg", Schema: sch, Cols: cols}
	e.Log.add(Step{
		Kind: StepAgg, Table: t.Name,
		LeftRows: t.NumRows(), OutRows: out.NumRows(),
		LeftBase: t.Base,
	}, t, nil, out)
	return out
}
