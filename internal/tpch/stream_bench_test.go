package tpch

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkTPCHJoinQuery times the two join-heaviest queries (Q3's
// customer⋈orders⋈lineitem chain, Q9's five-way profit join) at pool
// size 1 vs GOMAXPROCS. On a 1-core host the speedup is ≈1 by
// construction.
func BenchmarkTPCHJoinQuery(b *testing.B) {
	db := Generate(GenConfig{SF: 0.01, Seed: 1, Random64: true})
	for _, id := range []int{3, 9} {
		for _, pool := range []struct {
			name    string
			workers int
		}{{"workers=1", 1}, {"workers=max", 0}} {
			b.Run(fmt.Sprintf("Q%d/%s", id, pool.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					RunQueryWorkers(id, db, pool.workers)
				}
			})
		}
	}
}

// BenchmarkStreams measures aggregate stream throughput on the shared
// DB at 1 stream vs GOMAXPROCS streams (the engine benchmark's
// mem-stream workload is the script-facing version of the same
// measurement).
func BenchmarkStreams(b *testing.B) {
	db := Generate(GenConfig{SF: 0.005, Seed: 1, Random64: true})
	RunStreams(db, StreamConfig{Warmup: true}) // prime caches once
	for _, streams := range []int{1, 0} {
		name := fmt.Sprintf("streams=%d", streams)
		if streams == 0 {
			name = "streams=max"
		}
		b.Run(name, func(b *testing.B) {
			n := streams
			if n == 0 {
				n = runtime.GOMAXPROCS(0)
			}
			for i := 0; i < b.N; i++ {
				res := RunStreams(db, StreamConfig{Streams: n, Workers: 1})
				b.ReportMetric(res.QPS, "qps")
			}
		})
	}
}
