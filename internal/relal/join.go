// Hash joins. Join, SemiJoin and AntiJoin share one key table over the
// build (right) side, built once and then read-only:
//
//  1. Build: per partition, a map from key to the first build row holding
//     it; a next vector chains the later rows of the same key. A big
//     build side on a pool splits into one partition per worker by key
//     hash — each partition scans the whole key column and takes only
//     its own keys — and one partition is the same loop without the hash
//     test. Chains always run in build-row order, so the probe output
//     does not depend on the partition count.
//  2. Probe: the probe (left) side splits into morsels, each filling its
//     own index buffers; the buffers concatenate in morsel order, which
//     is probe-row order. Join walks each hit's chain (left-major match
//     order); SemiJoin/AntiJoin only ask whether a chain exists, through
//     the row-selection loop Filter uses.
//  3. Compose: Join moves no cell. Its output holds both inputs' own
//     vectors, each read through its input's selection composed with the
//     matching index vector — one int32 pass per distinct input
//     selection, the index vector itself for a dense input column.
//
// One worker, or an input of one morsel, is the one-partition, one-morsel
// case of these loops: the dispatchers in parallel.go run it inline.
package relal

import "fmt"

// joinMorselRows is the probe morsel size and the build size past which
// the key table is partitioned. It defaults to the scan-kernel
// morsel size; tests shrink it to exercise the multi-morsel concatenation
// and the partitioned build on small randomized tables.
var joinMorselRows = MorselRows

// maxBuildPartitions bounds the partition-wise build fan-out: each
// partition scans the full key column, so partitions beyond the worker
// count only add wasted passes.
const maxBuildPartitions = 64

// mix64 is the splitmix64 finalizer: a cheap invertible mixer that
// spreads int64 key bits across partitions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// joinKeys returns t's named key column. Hash-join keys are Int columns:
// every join the TPC-H plans run is on an integer key, so the table has
// one key type instead of a kernel per type.
func joinKeys(t *Table, name string) IntVec {
	c := t.Schema.Col(name)
	if t.Schema[c].Type != Int {
		panic(fmt.Sprintf("relal: join key %q of table %q is not Int", name, t.Name))
	}
	return IntVec{data: t.Cols[c].Ints, sel: t.sel(c)}
}

// keyTable is the read-only hash table of one join. heads holds, per
// partition, key → the first logical build row with that key; next[j] is
// the next build row with row j's key, -1 at the end of a chain.
type keyTable struct {
	heads []map[int64]int32
	next  []int32
}

// buildKeyTable builds the table over right's key column. Exactly one
// partition per worker once the build side is past a morsel: each
// partition is a full scan of the key column, so any extra partition
// would put a second pass on some worker's critical path. A partition
// scans from the last row to the first, pushing each of its rows onto
// the front of its key's chain — every row is written by exactly one
// partition and every chain comes out ascending.
func buildKeyTable(keys IntVec, rn, workers int) *keyTable {
	p := 1
	if workers > 1 && rn > joinMorselRows {
		p = min(workers, maxBuildPartitions)
	}
	kt := &keyTable{heads: make([]map[int64]int32, p), next: make([]int32, rn)}
	parallelRanges(p, workers, func(lo, hi int) {
		for part := lo; part < hi; part++ {
			head := make(map[int64]int32, rn/p+1)
			for j := rn - 1; j >= 0; j-- {
				k := keys.Get(j)
				if p > 1 && mix64(uint64(k))%uint64(p) != uint64(part) {
					continue
				}
				if h, ok := head[k]; ok {
					kt.next[j] = h
				} else {
					kt.next[j] = -1
				}
				head[k] = int32(j)
			}
			kt.heads[part] = head
		}
	})
	return kt
}

// first returns the first build row with key k, or -1 for a miss.
func (kt *keyTable) first(k int64) int32 {
	part := 0
	if len(kt.heads) > 1 {
		part = int(mix64(uint64(k)) % uint64(len(kt.heads)))
	}
	if j, ok := kt.heads[part][k]; ok {
		return j
	}
	return -1
}

// Join hash-joins left and right on leftKey = rightKey (inner join),
// producing the concatenated schema with right's key column retained
// (callers project as needed). Matches come out left-major: probe-row
// order, build-row order within a key. The output is a view over both
// inputs' vectors (no cell is copied) and is byte-identical at every
// pool size.
func (e *Exec) Join(left, right *Table, leftKey, rightKey string) *Table {
	lKeys := joinKeys(left, leftKey)
	w := e.workers()
	kt := buildKeyTable(joinKeys(right, rightKey), right.NumRows(), w)
	ln := left.NumRows()
	ls := make([][]int32, (ln+joinMorselRows-1)/joinMorselRows)
	rs := make([][]int32, len(ls))
	parallelMorselsSize(ln, joinMorselRows, w, func(m, lo, hi int) {
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
	e.Log.Add(Step{
		Kind: StepJoin, Table: out.Name,
		LeftRows: left.NumRows(), LeftWidth: left.AvgRowBytes(),
		RightRows: right.NumRows(), RightWidth: right.AvgRowBytes(),
		OutRows: out.NumRows(), OutWidth: out.AvgRowBytes(),
		JoinKey:  leftKey,
		LeftBase: BaseOf(left), RightBase: BaseOf(right),
	})
	return out
}

// semiAnti implements SemiJoin (keep=true) and AntiJoin (keep=false) as
// zero-copy views over left: a row is selected when its key's presence
// in the join's key table equals keep.
func (e *Exec) semiAnti(left, right *Table, leftKey, rightKey, suffix string, keep bool) *Table {
	lKeys := joinKeys(left, leftKey)
	w := e.workers()
	kt := buildKeyTable(joinKeys(right, rightKey), right.NumRows(), w)
	sel := selectRows(left.NumRows(), joinMorselRows, w, func(i int) bool {
		return (kt.first(lKeys.Get(i)) >= 0) == keep
	})
	out := view(left, left.Name+suffix, sel)
	e.Log.Add(Step{
		Kind: StepJoin, Table: out.Name,
		LeftRows: left.NumRows(), LeftWidth: left.AvgRowBytes(),
		RightRows: right.NumRows(), RightWidth: right.AvgRowBytes(),
		OutRows: out.NumRows(), OutWidth: out.AvgRowBytes(),
		JoinKey:  leftKey,
		LeftBase: BaseOf(left), RightBase: BaseOf(right),
	})
	SetBase(out, BaseOf(left))
	return out
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
	parallelMorselsSize(n, size, workers, func(m, lo, hi int) {
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
