// Morsel-parallel hash joins. The join pipeline has three parallel
// phases, each constructed so its output is byte-identical to the serial
// kernels at any worker count:
//
//  1. Build: the hash table over the build (right) side is partitioned
//     by key hash. Each worker owns a set of partitions and scans the
//     whole key column, inserting only the keys whose hash lands in its
//     partitions — so within every key the physical-row list is in
//     global build-row order, exactly as a single serial map insert
//     would produce.
//  2. Probe: the probe (left) side splits into fixed-size morsels over
//     the now read-only table. Each morsel emits its own match-index
//     buffers; the buffers concatenate in morsel order, which is global
//     probe-row order — the serial left-major match order.
//  3. Gather: output columns materialize with typed gathers over the
//     merged index vectors; each output slot is written exactly once, so
//     the gather splits into morsels freely.
//
// SemiJoin/AntiJoin run the same build partitioning over a key-set table
// and fill the per-row membership vector morsel-parallel.
package relal

import "math"

// joinMorselRows is the probe/gather morsel size and the minimum input
// size for a join phase to go parallel. It defaults to the scan-kernel
// morsel size; tests shrink it to exercise the multi-morsel merge and
// the partitioned build on small randomized tables.
var joinMorselRows = MorselRows

// maxBuildPartitions bounds the partition-wise build fan-out: each
// partition scans the full key column, so partitions beyond the worker
// count only add wasted passes.
const maxBuildPartitions = 64

// mix64 is the splitmix64 finalizer: a cheap invertible mixer that
// spreads int64/float64 key bits across partitions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashIntKey(k int64) uint64 { return mix64(uint64(k)) }

func hashCodeKey(k uint32) uint64 { return mix64(uint64(k)) }

// hashFloatKey hashes the canonical bit pattern: -0.0 and +0.0 are equal
// as map keys, so they must route to the same partition. (NaN needs no
// such care — it never equals anything, in any partition.)
func hashFloatKey(k float64) uint64 {
	if k == 0 {
		k = 0 // collapses -0.0 onto +0.0
	}
	return mix64(math.Float64bits(k))
}

// hashStrKey is FNV-1a 64.
func hashStrKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// joinPartitions picks the build partition count: 1 (plain serial map)
// unless the build side is big enough for the partition passes to pay
// for themselves. Exactly one partition per worker: each partition is a
// full scan of the key column, so any extra partition would put a
// second full pass on some worker's critical path.
func joinPartitions(rows, workers int) int {
	if workers <= 1 || rows <= joinMorselRows {
		return 1
	}
	if workers > maxBuildPartitions {
		return maxBuildPartitions
	}
	return workers
}

// joinTable is the shared read-only hash table of one join: per
// partition, key → physical build-row indices in global build-row order.
type joinTable[K comparable] struct {
	parts []map[K][]int32
	hash  func(K) uint64
}

// buildJoinTable builds the partitioned table. With p partitions, worker
// w scans the entire key column and inserts only keys with
// hash(k) % p == its partition — p scans total, but they run in
// parallel and every per-key row list comes out in build-row order, so
// probe output is independent of p.
func buildJoinTable[K comparable](right *Table, rKeys []K, hash func(K) uint64, workers int) *joinTable[K] {
	rn := right.NumRows()
	p := joinPartitions(rn, workers)
	jt := &joinTable[K]{parts: make([]map[K][]int32, p), hash: hash}
	if p == 1 {
		m := make(map[K][]int32, rn)
		for j := 0; j < rn; j++ {
			k := keyAt(rKeys, right.sel, j)
			m[k] = append(m[k], right.phys(j))
		}
		jt.parts[0] = m
		return jt
	}
	parallelRanges(p, workers, func(lo, hi int) {
		for part := lo; part < hi; part++ {
			m := make(map[K][]int32, rn/p+1)
			for j := 0; j < rn; j++ {
				k := keyAt(rKeys, right.sel, j)
				if hash(k)%uint64(p) == uint64(part) {
					m[k] = append(m[k], right.phys(j))
				}
			}
			jt.parts[part] = m
		}
	})
	return jt
}

// lookup returns the build rows matching k (nil for a miss).
func (jt *joinTable[K]) lookup(k K) []int32 {
	if len(jt.parts) == 1 {
		return jt.parts[0][k]
	}
	return jt.parts[jt.hash(k)%uint64(len(jt.parts))][k]
}

// probeJoin probes the shared table with the left side, morsel-parallel,
// and merges per-morsel match buffers in morsel order: the result is the
// serial left-major (probe-row order, build-insertion order within a
// key) match list for every worker count.
func probeJoin[K comparable](left *Table, lKeys []K, jt *joinTable[K], workers int) (lIdx, rIdx []int32) {
	ln := left.NumRows()
	if workers <= 1 || ln <= joinMorselRows {
		for i := 0; i < ln; i++ {
			if hits := jt.lookup(keyAt(lKeys, left.sel, i)); len(hits) > 0 {
				p := left.phys(i)
				for _, rp := range hits {
					lIdx = append(lIdx, p)
					rIdx = append(rIdx, rp)
				}
			}
		}
		return lIdx, rIdx
	}
	morsels := (ln + joinMorselRows - 1) / joinMorselRows
	type matchBuf struct{ l, r []int32 }
	bufs := make([]matchBuf, morsels)
	parallelMorselsSize(ln, joinMorselRows, workers, func(m, lo, hi int) {
		var b matchBuf
		for i := lo; i < hi; i++ {
			if hits := jt.lookup(keyAt(lKeys, left.sel, i)); len(hits) > 0 {
				p := left.phys(i)
				for _, rp := range hits {
					b.l = append(b.l, p)
					b.r = append(b.r, rp)
				}
			}
		}
		bufs[m] = b
	})
	total := 0
	for _, b := range bufs {
		total += len(b.l)
	}
	lIdx = make([]int32, 0, total)
	rIdx = make([]int32, 0, total)
	for _, b := range bufs {
		lIdx = append(lIdx, b.l...)
		rIdx = append(rIdx, b.r...)
	}
	return lIdx, rIdx
}

// matchTypedWorkers is the parallel hash-join kernel for one key type.
// workers <= 1 (or a sub-morsel input) takes the retained serial
// reference path, matchTyped, byte-for-byte.
func matchTypedWorkers[K comparable](left, right *Table, lKeys, rKeys []K, hash func(K) uint64, workers int) (lIdx, rIdx []int32) {
	if workers <= 1 || (left.NumRows() <= joinMorselRows && right.NumRows() <= joinMorselRows) {
		return matchTyped(left, right, lKeys, rKeys)
	}
	jt := buildJoinTable(right, rKeys, hash, workers)
	return probeJoin(left, lKeys, jt, workers)
}

// matchIndicesWorkers dispatches the hash-join build/probe on the key
// column type with the given worker-pool size. Keys must have identical
// types on both sides. Str keys whose vectors share one dictionary join
// on the uint32 codes (code equality is value equality under a shared
// dict); otherwise dict keys decode once, at the boundary, into a
// string slice.
func matchIndicesWorkers(left, right *Table, li, ri, workers int) (lIdx, rIdx []int32) {
	if left.Schema[li].Type != right.Schema[ri].Type {
		panic("relal: join key type mismatch: " +
			left.Schema[li].Name + " vs " + right.Schema[ri].Name)
	}
	lc, rc := left.Cols[li], right.Cols[ri]
	switch left.Schema[li].Type {
	case Int:
		return matchTypedWorkers(left, right, lc.Ints, rc.Ints, hashIntKey, workers)
	case Float:
		return matchTypedWorkers(left, right, lc.Floats, rc.Floats, hashFloatKey, workers)
	default:
		lv, rv := lc, rc
		if lv.IsDict() && rv.IsDict() && sameDict(lv, rv) {
			return matchTypedWorkers(left, right, lv.Dict, rv.Dict, hashCodeKey, workers)
		}
		return matchTypedWorkers(left, right, lv.DecodeStrs(), rv.DecodeStrs(), hashStrKey, workers)
	}
}

// memberTable is the partitioned key set of a semi/anti join.
type memberTable[K comparable] struct {
	parts []map[K]struct{}
	hash  func(K) uint64
}

func buildMemberTable[K comparable](right *Table, rKeys []K, hash func(K) uint64, workers int) *memberTable[K] {
	rn := right.NumRows()
	p := joinPartitions(rn, workers)
	mt := &memberTable[K]{parts: make([]map[K]struct{}, p), hash: hash}
	if p == 1 {
		m := make(map[K]struct{}, rn)
		for j := 0; j < rn; j++ {
			m[keyAt(rKeys, right.sel, j)] = struct{}{}
		}
		mt.parts[0] = m
		return mt
	}
	parallelRanges(p, workers, func(lo, hi int) {
		for part := lo; part < hi; part++ {
			m := make(map[K]struct{}, rn/p+1)
			for j := 0; j < rn; j++ {
				k := keyAt(rKeys, right.sel, j)
				if hash(k)%uint64(p) == uint64(part) {
					m[k] = struct{}{}
				}
			}
			mt.parts[part] = m
		}
	})
	return mt
}

func (mt *memberTable[K]) contains(k K) bool {
	part := 0
	if len(mt.parts) > 1 {
		part = int(mt.hash(k) % uint64(len(mt.parts)))
	}
	_, ok := mt.parts[part][k]
	return ok
}

// memberTypedWorkers is the parallel semi/anti-join kernel: the hit
// vector fills morsel-parallel, each slot written exactly once, so it is
// identical to memberTyped at any worker count.
func memberTypedWorkers[K comparable](left, right *Table, lKeys, rKeys []K, hash func(K) uint64, workers int) []bool {
	ln := left.NumRows()
	if workers <= 1 || (ln <= joinMorselRows && right.NumRows() <= joinMorselRows) {
		return memberTyped(left, right, lKeys, rKeys)
	}
	mt := buildMemberTable(right, rKeys, hash, workers)
	hit := make([]bool, ln)
	parallelMorselsSize(ln, joinMorselRows, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hit[i] = mt.contains(keyAt(lKeys, left.sel, i))
		}
	})
	return hit
}

// keyMembershipWorkers dispatches the semi/anti-join kernel on the key
// column type with the given worker-pool size.
func keyMembershipWorkers(left, right *Table, li, ri, workers int) []bool {
	if left.Schema[li].Type != right.Schema[ri].Type {
		panic("relal: join key type mismatch: " +
			left.Schema[li].Name + " vs " + right.Schema[ri].Name)
	}
	lc, rc := left.Cols[li], right.Cols[ri]
	switch left.Schema[li].Type {
	case Int:
		return memberTypedWorkers(left, right, lc.Ints, rc.Ints, hashIntKey, workers)
	case Float:
		return memberTypedWorkers(left, right, lc.Floats, rc.Floats, hashFloatKey, workers)
	default:
		lv, rv := lc, rc
		if lv.IsDict() && rv.IsDict() && sameDict(lv, rv) {
			return memberTypedWorkers(left, right, lv.Dict, rv.Dict, hashCodeKey, workers)
		}
		return memberTypedWorkers(left, right, lv.DecodeStrs(), rv.DecodeStrs(), hashStrKey, workers)
	}
}

// gatherSliceWorkers fills out[k] = xs[idx[k]] morsel-parallel.
func gatherSliceWorkers[T any](xs []T, idx []int32, workers int) []T {
	out := make([]T, len(idx))
	parallelMorselsSize(len(idx), joinMorselRows, workers, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			out[k] = xs[idx[k]]
		}
	})
	return out
}

// gatherWorkers is the morsel-parallel typed gather materializing join
// output columns; every output slot is written by exactly one morsel, so
// the dense vector is identical at any worker count.
func (v *Vector) gatherWorkers(idx []int32, workers int) *Vector {
	if workers <= 1 || len(idx) <= joinMorselRows {
		return v.gather(idx)
	}
	out := &Vector{Kind: v.Kind}
	switch v.Kind {
	case Int:
		out.Ints = gatherSliceWorkers(v.Ints, idx, workers)
	case Float:
		out.Floats = gatherSliceWorkers(v.Floats, idx, workers)
	default:
		if v.DictVals != nil {
			out.Dict = gatherSliceWorkers(v.Dict, idx, workers)
			out.DictVals = v.DictVals
		} else {
			out.Strs = gatherSliceWorkers(v.Strs, idx, workers)
		}
	}
	return out
}
