package relal

// Dense-array dict aggregation. When every group-by column is
// dict-encoded and the product of the dictionary sizes is small, the
// combined code is a perfect hash: per-group state lives in a flat
// slot array indexed by Σ code_j·mult_j instead of a map keyed by the
// stringified group key. On Q1 (4 groups over a 3×2 code space) this
// removes the per-row key build and map probe entirely.
//
// Both kernels emit groups in first-seen order and feed each group its
// rows in global row order, so their output is bit-identical to the
// hash kernels at every worker count.

// maxDenseGroupSpan bounds the combined code space (and so the slot
// array) the dense path will allocate. Beyond this the map kernels win
// on memory anyway.
const maxDenseGroupSpan = 4096

// denseGroupInfo reports whether the dense-array path applies to the
// given group columns: all dict-encoded with a combined code space of
// at most maxDenseGroupSpan slots. mults are the mixed-radix multipliers
// mapping a code tuple to its slot.
func denseGroupInfo(t *Table, gidx []int) (gcols []*Vector, mults []int, span int, ok bool) {
	if len(gidx) == 0 {
		return nil, nil, 0, false
	}
	gcols = make([]*Vector, len(gidx))
	span = 1
	for j, gi := range gidx {
		col := t.Cols[gi]
		if col.DictVals == nil || len(col.DictVals) == 0 {
			return nil, nil, 0, false
		}
		if span > maxDenseGroupSpan/len(col.DictVals) {
			return nil, nil, 0, false
		}
		span *= len(col.DictVals)
		gcols[j] = col
	}
	mults = make([]int, len(gidx))
	mults[len(mults)-1] = 1
	for j := len(mults) - 2; j >= 0; j-- {
		mults[j] = mults[j+1] * len(gcols[j+1].DictVals)
	}
	return gcols, mults, span, true
}

// aggregateDenseSerial is the serial dense-array kernel.
func aggregateDenseSerial(t *Table, gcols []*Vector, mults []int, span int, aidx []int, newAccum func(p int32) *accum) []*accum {
	slots := make([]*accum, span)
	var order []*accum
	codes := make([][]uint32, len(gcols))
	for j, g := range gcols {
		codes[j] = g.Dict
	}
	n := t.NumRows()
	for i := 0; i < n; i++ {
		p := t.phys(i)
		slot := 0
		for j, cs := range codes {
			slot += int(cs[p]) * mults[j]
		}
		acc := slots[slot]
		if acc == nil {
			acc = newAccum(p)
			slots[slot] = acc
			order = append(order, acc)
		}
		acc.observe(t, aidx, p)
	}
	return order
}

// aggregateDenseMorsels is the parallel dense-array kernel: the same
// four-phase structure as aggregateMorsels (local build, ordered merge,
// remap, grouped accumulation in global row order) with flat slot
// arrays standing in for the local and global hash maps.
func aggregateDenseMorsels(t *Table, gcols []*Vector, mults []int, span int, aidx []int, newAccum func(p int32) *accum, workers int) []*accum {
	codes := make([][]uint32, len(gcols))
	for j, g := range gcols {
		codes[j] = g.Dict
	}
	n := t.NumRows()
	morsels := (n + MorselRows - 1) / MorselRows
	type local struct {
		seen   []int32 // slot → local gid + 1 (0 = unseen)
		slots  []int32 // local gid → slot
		first  []int32 // local gid → physical row of first occurrence
		rowGid []int32 // morsel row → local gid
	}
	locals := make([]local, morsels)
	parallelMorsels(n, workers, func(m, lo, hi int) {
		l := local{seen: make([]int32, span), rowGid: make([]int32, hi-lo)}
		for i := lo; i < hi; i++ {
			p := t.phys(i)
			slot := 0
			for j, cs := range codes {
				slot += int(cs[p]) * mults[j]
			}
			gid := l.seen[slot] - 1
			if gid < 0 {
				gid = int32(len(l.slots))
				l.seen[slot] = gid + 1
				l.slots = append(l.slots, int32(slot))
				l.first = append(l.first, p)
			}
			l.rowGid[i-lo] = gid
		}
		locals[m] = l
	})

	global := make([]int32, span) // slot → global gid + 1
	var order []*accum
	remaps := make([][]int32, morsels)
	for m := range locals {
		l := &locals[m]
		remap := make([]int32, len(l.slots))
		for lid, slot := range l.slots {
			gid := global[slot] - 1
			if gid < 0 {
				gid = int32(len(order))
				global[slot] = gid + 1
				order = append(order, newAccum(l.first[lid]))
			}
			remap[lid] = gid
		}
		remaps[m] = remap
	}

	rowGid := make([]int32, n)
	parallelMorsels(n, workers, func(m, lo, hi int) {
		remap := remaps[m]
		lg := locals[m].rowGid
		for i := lo; i < hi; i++ {
			rowGid[i] = remap[lg[i-lo]]
		}
	})

	counts := make([]int32, len(order))
	for _, g := range rowGid {
		counts[g]++
	}
	starts := make([]int32, len(order)+1)
	for g, c := range counts {
		starts[g+1] = starts[g] + c
	}
	grouped := make([]int32, n)
	cursor := make([]int32, len(order))
	copy(cursor, starts[:len(order)])
	for i := 0; i < n; i++ {
		g := rowGid[i]
		grouped[cursor[g]] = t.phys(i)
		cursor[g]++
	}

	parallelRanges(len(order), workers, func(lo, hi int) {
		for g := lo; g < hi; g++ {
			acc := order[g]
			for _, p := range grouped[starts[g]:starts[g+1]] {
				acc.observe(t, aidx, p)
			}
		}
	})
	return order
}
