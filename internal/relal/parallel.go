// Morsel-driven parallelism: kernels split their input into fixed-size
// morsels of logical rows and run them through runItems on the shared
// core budget (sched.go); parallelMorsels is the one row-range adapter.
// Every kernel merges per-morsel results in morsel order, and an
// aggregate folds its column in one pass over the rows in global row
// order (agg.go), so the output — including floating-point aggregate
// bits — is identical for any worker count and any morsel size. That
// invariant is what lets the TPC-H golden snapshot stay byte-for-byte
// stable while Exec.Parallelism varies.
package relal

// MorselRows is the number of logical rows per morsel. Large enough that
// per-morsel bookkeeping is negligible, small enough that a scan over a
// few hundred thousand rows still load-balances across a pool.
const MorselRows = 8192

// workers resolves the Exec.Parallelism knob into the query's admission
// cap on the shared core budget: 0 (the zero value) caps at PoolSize(),
// 1 keeps the query on the calling goroutine (runItems runs every item
// inline, in order — each kernel's only code path), n > 1 lets up to n
// goroutines, the caller included, work on one job at once.
func (e *Exec) workers() int {
	if e == nil || e.Parallelism <= 0 {
		return PoolSize()
	}
	return e.Parallelism
}

// parallelMorsels runs fn over the morsels of size rows covering n rows,
// at most workers at once (the job's admission cap on the shared pool,
// not a goroutine count). Morsel m covers logical rows
// [m*size, min((m+1)*size, n)). fn must only write state owned by its
// morsel index: which goroutine runs a morsel is dynamic, but the rows
// each morsel covers are fixed.
func parallelMorsels(n, size, workers int, fn func(m, lo, hi int)) {
	runItems((n+size-1)/size, workers, func(m int) {
		lo := m * size
		fn(m, lo, min(lo+size, n))
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
