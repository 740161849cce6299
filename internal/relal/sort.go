// Sorting. Sort is one stable sort of the logical-row vector over the
// shared column vectors: stability makes the permutation unique, so there
// is nothing for a worker count to change. Every sort the 22 TPC-H
// queries run is at most one morsel of rows, so a parallel sort would
// have no workload.
//
// TopK fuses Limit into the sort: each morsel keeps a bounded max-heap
// of the k least rows under the strict order (sort keys, then original
// row index — the stable-sort order made total), the ≤ morsels·k
// candidates are concatenated and sorted, and the first k are the same
// rows in the same order as Limit-after-Sort, in O(rows·log k) instead
// of a full sort.
package relal

import (
	"cmp"
	"sort"
	"time"
)

// sortMorselRows is the top-K morsel size. It defaults to the scan
// morsel size; tests shrink it so the per-morsel heaps and their
// concatenation engage on small randomized tables.
var sortMorselRows = MorselRows

// OrderSpec is one sort key.
type OrderSpec struct {
	Col  string
	Desc bool
}

// cmpFn returns a logical-row comparator over one typed key column read
// through its selection sel; neg is -1 for descending keys. cmp.Compare
// gives a total order even for float NaN (NaN sorts before every number
// and ties with itself) — a non-transitive comparator would let two
// correct stable sorts produce different permutations, and TopK's
// candidates would no longer be a prefix of Sort's.
func cmpFn[K cmp.Ordered](xs []K, sel []int32, neg int) func(a, b int32) int {
	if sel == nil {
		return func(a, b int32) int { return neg * cmp.Compare(xs[a], xs[b]) }
	}
	return func(a, b int32) int { return neg * cmp.Compare(xs[sel[a]], xs[sel[b]]) }
}

// sortCmps builds the per-key logical-row comparators for t.
func sortCmps(t *Table, keys []OrderSpec) []func(a, b int32) int {
	cmps := make([]func(a, b int32) int, len(keys))
	for k, spec := range keys {
		ci := t.Schema.Col(spec.Col)
		col, sel := t.Cols[ci], t.sel(ci)
		neg := 1
		if spec.Desc {
			neg = -1
		}
		switch col.Kind {
		case Int:
			cmps[k] = cmpFn(col.Ints, sel, neg)
		case Float:
			cmps[k] = cmpFn(col.Floats, sel, neg)
		default:
			if col.DictVals != nil {
				// The dictionary is sorted, so code order is value
				// order: the string sort runs as a uint32 sort.
				cmps[k] = cmpFn(col.Dict, sel, neg)
			} else {
				cmps[k] = cmpFn(col.Strs, sel, neg)
			}
		}
	}
	return cmps
}

// cmpIdx compares two logical rows through the key-comparator chain.
func cmpIdx(cmps []func(a, b int32) int, a, b int32) int {
	for _, c := range cmps {
		if r := c(a, b); r != 0 {
			return r
		}
	}
	return 0
}

// sortIndex returns the stable sort permutation of t's logical rows.
func sortIndex(t *Table, cmps []func(a, b int32) int) []int32 {
	idx := make([]int32, t.NumRows())
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return cmpIdx(cmps, idx[a], idx[b]) < 0
	})
	return idx
}

// Sort orders t by the given keys, logging the step. The sort permutes
// a row-index slice over the shared column vectors — no cell is copied.
func (e *Exec) Sort(t *Table, keys ...OrderSpec) *Table {
	start := time.Now()
	idx := sortIndex(t, sortCmps(t, keys))
	e.Log.SortNanos += time.Since(start).Nanoseconds()
	out := view(t, t.Name+"_s", idx)
	e.Log.add(Step{
		Kind: StepSort, Table: t.Name,
		LeftRows: t.NumRows(), OutRows: out.NumRows(),
		LeftBase: t.Base,
	}, t, nil, out)
	return out
}

// heapTopK scans logical rows [lo, hi) keeping the k least under less in
// a bounded max-heap (root = greatest kept candidate), so a morsel costs
// O(rows·log k) instead of participating in a full sort. The heap never
// holds more than the morsel's own rows, whatever k is.
func heapTopK(lo, hi, k int, less func(i, j int32) bool) []int32 {
	h := make([]int32, 0, min(k, hi-lo))
	for i := lo; i < hi; i++ {
		x := int32(i)
		if len(h) < k {
			h = append(h, x)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !less(h[p], h[c]) {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
			continue
		}
		if !less(x, h[0]) {
			continue
		}
		h[0] = x
		for p := 0; ; {
			big, l, r := p, 2*p+1, 2*p+2
			if l < len(h) && less(h[big], h[l]) {
				big = l
			}
			if r < len(h) && less(h[big], h[r]) {
				big = r
			}
			if big == p {
				break
			}
			h[p], h[big] = h[big], h[p]
			p = big
		}
	}
	return h
}

// topKIndex returns the first k logical rows of t's stable sort
// permutation without sorting the whole input: per-morsel bounded heaps
// select candidates under the strict (keys, original row index) order,
// and the ≤ morsels·k survivors sort in one final pass. The index
// tie-break makes the order total, so the selected set and its order are
// independent of morsel boundaries and worker count — exactly the rows
// Limit-after-Sort would keep.
func topKIndex(t *Table, cmps []func(a, b int32) int, k, workers int) []int32 {
	if k <= 0 {
		return []int32{}
	}
	n := t.NumRows()
	less := func(i, j int32) bool {
		if r := cmpIdx(cmps, i, j); r != 0 {
			return r < 0
		}
		return i < j
	}
	parts := make([][]int32, (n+sortMorselRows-1)/sortMorselRows)
	parallelMorsels(n, sortMorselRows, workers, func(m, lo, hi int) {
		parts[m] = heapTopK(lo, hi, k, less)
	})
	cand := concatIdx(parts)
	sort.Slice(cand, func(a, b int) bool { return less(cand[a], cand[b]) })
	if len(cand) > k {
		cand = cand[:k]
	}
	return cand
}

// TopK is the fused Sort+Limit operator: the k first rows of the stable
// sort of t by keys, as a view (no cell copied), byte-identical to
// e.Limit(e.Sort(t, keys...), k) at every Exec.Parallelism. It logs the
// same Sort+Limit step pair (full input cardinality on the sort step)
// the unfused operators would, so the Hive/PDW cost replays are
// unchanged — the fusion only removes host-side work.
func (e *Exec) TopK(t *Table, k int, keys ...OrderSpec) *Table {
	cmps := sortCmps(t, keys)
	n := t.NumRows()
	start := time.Now()
	var sel []int32
	if k >= n {
		sel = sortIndex(t, cmps)
	} else {
		sel = topKIndex(t, cmps, k, e.workers())
	}
	e.Log.SortNanos += time.Since(start).Nanoseconds()
	e.Log.add(Step{
		Kind: StepSort, Table: t.Name,
		LeftRows: n, OutRows: n,
		LeftBase: t.Base,
	}, t, nil, t)
	out := view(t, t.Name+"_s", sel)
	e.Log.add(Step{
		Kind: StepLimit, Table: out.Name,
		LeftRows: n, OutRows: out.NumRows(),
		LeftBase: t.Base,
	}, t, nil, out)
	return out
}
