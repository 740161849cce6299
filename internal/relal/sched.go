// The shared core budget: one process-wide set of PoolSize() helper
// goroutines serving every Exec, every query, every stream, so N
// concurrent query streams × W workers never oversubscribe the cores. A
// kernel borrows idle helpers for the length of one job.
//
// runItems is the only dispatch primitive. The caller offers its job to
// up to cap−1 helpers with non-blocking sends on one buffered channel
// (a full channel means every helper already has work queued, so it
// stops offering), then claims items from the job's atomic counter
// itself. A job's admission cap is the submitting Exec's Parallelism:
// the caller plus at most cap−1 helpers, so one wide scan cannot take
// more than its share of the cores.
//
// The determinism contract is untouched: a job's item set is fixed by
// the submit call, only which goroutine runs an item is dynamic — the
// freedom the kernels already rely on, since every kernel merges
// per-item state in item order. The golden snapshot stays byte-identical
// at any pool size, stream count and admission cap.
//
// Liveness: the caller always works on its own job and then waits only
// for items some executor has already claimed, never for a helper to
// arrive. So a job progresses while every helper is busy elsewhere, a
// kernel running on a helper can itself submit without deadlock, and a
// stale offer that reaches a finished job finds nothing left to claim.
package relal

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool is the process-wide helper set; PoolSize starts it.
var pool struct {
	once   sync.Once
	size   int
	offers chan *job // capacity size: at most one queued offer per helper
}

// job is one runItems call.
type job struct {
	items int
	fn    func(item int)
	next  atomic.Int64   // next unclaimed item
	wg    sync.WaitGroup // one count per item, released when it finishes
}

// PoolSize returns the number of helper goroutines — the value an
// Exec.Parallelism of 0 resolves to, and the "cores" figure harnesses
// should report instead of streams × workers. The size is pinned to
// GOMAXPROCS at first use, which also starts the helpers, so it stays
// stable for the process lifetime even if GOMAXPROCS changes later.
func PoolSize() int {
	pool.once.Do(func() {
		pool.size = runtime.GOMAXPROCS(0)
		pool.offers = make(chan *job, pool.size)
		for range pool.size {
			go func() {
				for j := range pool.offers {
					j.work()
				}
			}()
		}
	})
	return pool.size
}

// work claims and runs j's items until none is left unclaimed.
func (j *job) work() {
	for {
		i := int(j.next.Add(1) - 1)
		if i >= j.items {
			return
		}
		j.fn(i)
		j.wg.Done()
	}
}

// runItems runs fn once for every item in [0, items) on the caller plus
// at most cap−1 pool helpers, and returns when every item has finished.
// With cap ≤ 1 or a single item the items run inline, in order.
func runItems(items, cap int, fn func(item int)) {
	if cap <= 1 || items <= 1 {
		for i := 0; i < items; i++ {
			fn(i)
		}
		return
	}
	j := &job{items: items, fn: fn}
	j.wg.Add(items)
	PoolSize() // starts the helpers on first use
	offered := false
offer:
	for h := 1; h < min(cap, items); h++ {
		select {
		case pool.offers <- j:
			offered = true
		default:
			break offer
		}
	}
	if offered {
		// A parked helper woken by the send waits in this P's runnext
		// slot, which an idle P steals only after a sleep of tens of
		// microseconds — longer than many jobs, which would then run
		// serially. Yielding starts the helper here at once and moves
		// the caller to the P the wake-up roused.
		runtime.Gosched()
	}
	j.work()
	j.wg.Wait()
}
