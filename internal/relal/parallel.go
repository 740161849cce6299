// Morsel-driven parallelism: kernels split their input into fixed-size
// morsels of logical rows and dispatch them to the shared scheduler's
// worker pool (sched.go). Every kernel merges per-morsel results in
// morsel order, and an aggregate folds its column in one pass over the
// rows in global row order (agg.go), so the output — including
// floating-point aggregate bits — is identical for any worker count and
// any morsel size. That invariant is what lets
// the TPC-H golden snapshot stay byte-for-byte stable while
// Exec.Parallelism varies.
package relal

// MorselRows is the number of logical rows per morsel. Large enough that
// per-morsel bookkeeping is negligible, small enough that a scan over a
// few hundred thousand rows still load-balances across a pool.
const MorselRows = 8192

// workers resolves the Exec.Parallelism knob into the query's admission
// cap on the shared scheduler: 0 (the zero value) caps at the pool size,
// 1 keeps the query on the calling goroutine (the dispatchers below run
// every morsel inline — each kernel's only code path), n > 1 admits up
// to n concurrent morsels.
func (e *Exec) workers() int {
	if e == nil || e.Parallelism <= 0 {
		return PoolSize()
	}
	return e.Parallelism
}

// parallelMorsels runs fn over the morsels covering n rows on up to
// workers goroutines. Morsel m covers logical rows
// [m*MorselRows, min((m+1)*MorselRows, n)). fn must only write state
// owned by its morsel index; morsels are claimed from a shared atomic
// counter (morsel-driven dispatch), so assignment to workers is dynamic
// but the set of morsels each index covers is fixed.
func parallelMorsels(n, workers int, fn func(m, lo, hi int)) {
	parallelMorselsSize(n, MorselRows, workers, fn)
}

// parallelMorselsSize is parallelMorsels with an explicit morsel size —
// the join and top-K kernels use their own (test-shrinkable) sizes so
// the multi-morsel concatenation is exercisable on small tables. workers is the
// job's admission cap on the shared pool, not a goroutine count.
func parallelMorselsSize(n, size, workers int, fn func(m, lo, hi int)) {
	morsels := (n + size - 1) / size
	if workers > morsels {
		workers = morsels
	}
	if workers <= 1 {
		for m := 0; m < morsels; m++ {
			lo := m * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			fn(m, lo, hi)
		}
		return
	}
	globalSched.run(morsels, workers, func(m int) {
		lo := m * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		fn(m, lo, hi)
	})
}

// parallelRanges splits [0, n) into one contiguous range per admitted
// worker and runs fn over each. Used where per-item work is uniform and
// tiny (remapping an index column) or where items are whole groups. The
// range boundaries are a pure function of (n, workers), so results stay
// deterministic however the shared pool interleaves them.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	per := (n + workers - 1) / workers
	globalSched.run(workers, workers, func(w int) {
		lo, hi := w*per, (w+1)*per
		if hi > n {
			hi = n
		}
		if lo < hi {
			fn(lo, hi)
		}
	})
}

// concatIdx concatenates per-morsel index buffers in morsel order; one
// morsel's buffer is returned as is. The result is never nil: as a
// selection vector, nil would mean "every row".
func concatIdx(parts [][]int32) []int32 {
	if len(parts) == 1 && parts[0] != nil {
		return parts[0]
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int32, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
