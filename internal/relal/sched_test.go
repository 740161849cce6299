package relal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolSizeStable(t *testing.T) {
	a := PoolSize()
	if a < 1 {
		t.Fatalf("PoolSize() = %d, want >= 1", a)
	}
	if b := PoolSize(); b != a {
		t.Fatalf("PoolSize() changed between calls: %d then %d", a, b)
	}
}

// peakTracker records the most calls of enter that were in flight at
// once.
type peakTracker struct{ cur, peak atomic.Int32 }

func (p *peakTracker) enter() {
	c := p.cur.Add(1)
	for {
		old := p.peak.Load()
		if c <= old || p.peak.CompareAndSwap(old, c) {
			return
		}
	}
}

func (p *peakTracker) leave() { p.cur.Add(-1) }

// TestSchedRunsEveryItemOnce drives the pool hard: many concurrent
// submitters, each expecting every one of its items to run exactly
// once, at an inline and a shared cap and at 0, 1 and many items. At cap
// 1 the items must also run in order.
func TestSchedRunsEveryItemOnce(t *testing.T) {
	const submitters = 8
	for _, cap := range []int{1, 3} {
		for _, items := range []int{0, 1, 100} {
			t.Run(fmt.Sprintf("cap=%d/items=%d", cap, items), func(t *testing.T) {
				var wg sync.WaitGroup
				for s := 0; s < submitters; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						counts := make([]atomic.Int32, items)
						var order []int
						runItems(items, cap, func(item int) {
							counts[item].Add(1)
							if cap == 1 {
								order = append(order, item)
							}
						})
						for i := range counts {
							if got := counts[i].Load(); got != 1 {
								t.Errorf("item %d ran %d times, want 1", i, got)
							}
						}
						for i, item := range order {
							if item != i {
								t.Errorf("cap 1 ran item %d at position %d", item, i)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// TestSchedAdmissionCap checks a job never has more than cap items
// executing at once, whatever the pool size.
func TestSchedAdmissionCap(t *testing.T) {
	const cap = 2
	var p peakTracker
	runItems(32, cap, func(int) {
		p.enter()
		time.Sleep(100 * time.Microsecond)
		p.leave()
	})
	if peak := p.peak.Load(); peak > cap {
		t.Fatalf("peak concurrency %d exceeds admission cap %d", peak, cap)
	}
}

// TestSchedHelpersBounded checks the process-wide budget: however wide
// the caps, the goroutines executing items at once are the submitters
// themselves plus at most PoolSize() helpers.
func TestSchedHelpersBounded(t *testing.T) {
	const submitters = 8
	var p peakTracker
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runItems(64, PoolSize()+3, func(int) {
				p.enter()
				time.Sleep(50 * time.Microsecond)
				p.leave()
			})
		}()
	}
	wg.Wait()
	if peak, max := p.peak.Load(), int32(submitters+PoolSize()); peak > max {
		t.Fatalf("peak concurrency %d exceeds %d submitters + %d helpers", peak, submitters, PoolSize())
	}
}

// TestSchedNestedSubmit pins the caller-runs liveness property: a work
// item may itself submit a job (a kernel inside a pool helper calling a
// parallel kernel) without deadlocking, even when the outer job already
// saturates the pool.
func TestSchedNestedSubmit(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var total atomic.Int32
		runItems(2*PoolSize()+2, PoolSize()+1, func(int) {
			runItems(4, 2, func(int) {
				total.Add(1)
			})
		})
		if got, want := total.Load(), int32(4*(2*PoolSize()+2)); got != want {
			t.Errorf("nested items run %d times, want %d", got, want)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested submit deadlocked")
	}
}

// TestSchedProgressWhenPoolBusy blocks every helper inside another job
// and checks that a new job still completes, on its caller alone.
func TestSchedProgressWhenPoolBusy(t *testing.T) {
	release := make(chan struct{})
	var busy sync.WaitGroup
	busy.Add(PoolSize())
	blockers := make([]*job, PoolSize())
	for h := range blockers {
		blockers[h] = &job{items: 1, fn: func(int) {
			busy.Done()
			<-release
		}}
		blockers[h].wg.Add(1)
		pool.offers <- blockers[h]
	}
	busy.Wait()
	defer func() {
		close(release)
		for _, j := range blockers {
			j.wg.Wait()
		}
	}()

	done := make(chan int32)
	go func() {
		var ran atomic.Int32
		runItems(16, PoolSize()+1, func(int) { ran.Add(1) })
		done <- ran.Load()
	}()
	select {
	case got := <-done:
		if got != 16 {
			t.Fatalf("ran %d items, want 16", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job made no progress while every helper was busy")
	}
}

// BenchmarkSchedJob measures one job's dispatch cost. With trivial
// items (us=0) the time is the offer, claim and wait bookkeeping; with
// 20µs items it shows whether a job at cap 2+ really runs in parallel —
// a helper that starts late leaves the caller to run every item alone.
func BenchmarkSchedJob(b *testing.B) {
	for _, items := range []int{2, 8, 64} {
		for _, cap := range []int{1, PoolSize()} {
			for _, us := range []int{0, 20} {
				b.Run(fmt.Sprintf("items=%d/cap=%d/us=%d", items, cap, us), func(b *testing.B) {
					xs := make([]int, items)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						runItems(items, cap, func(m int) {
							if us > 0 {
								spin(time.Duration(us) * time.Microsecond)
							}
							xs[m]++
						})
					}
				})
			}
		}
	}
}

// spin busy-waits for d, standing in for a morsel's work.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}
