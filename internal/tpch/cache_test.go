package tpch

import (
	"fmt"
	"testing"

	"elephants/internal/rcfile"
	"elephants/internal/relal"
)

// attachCachedRCFile swaps every base-table source for an RCFile
// encoding sharing one chunk cache (nil = uncached).
func attachCachedRCFile(t testing.TB, db *DB, groupRows int, cache *rcfile.ChunkCache) {
	t.Helper()
	for _, name := range TableNames {
		src, err := rcfile.NewSource(db.Table(name), groupRows)
		if err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
		src.SetCache(cache)
		db.SetSource(name, src)
	}
}

// TestCacheGoldenMatrix is the caching acceptance gate: across the full
// {workers} x {streams} matrix and three chunk-cache modes — none, one
// that fits, and one too small to hold the working set (every insert
// evicts) — two rounds of RCFile-backed streams must reproduce the
// golden snapshot byte-for-byte, and the second round must execute:
// every query of every round is counted and its scans are accounted.
// Run under -race (the CI streams job does) this also proves the cache
// is data-race free.
func TestCacheGoldenMatrix(t *testing.T) {
	want := goldenSections(t)
	db := Generate(GenConfig{SF: goldenSF, Seed: 1, Random64: true})
	qids := []int{1, 3, 6, 13}
	// One cacheless round's scan footprint: pruning is deterministic, so
	// every executed round scans exactly this much, cached or not.
	attachCachedRCFile(t, db, 1024, nil)
	round := RunStreams(db, StreamConfig{Queries: qids}).Scanned
	if round.BytesRead == 0 {
		t.Fatalf("reference round scanned nothing: %+v", round)
	}
	modes := []struct {
		name         string
		chunkCap     int64 // 0 = no chunk cache
		wantChunkHit bool
	}{
		{name: "off", chunkCap: 0},
		{name: "on", chunkCap: 64 << 20, wantChunkHit: true},
		{name: "tiny", chunkCap: 1},
	}
	for _, workers := range []int{1, 4} {
		for _, streams := range []int{1, 4} {
			for _, mode := range modes {
				name := fmt.Sprintf("workers=%d_streams=%d_cache=%s", workers, streams, mode.name)
				t.Run(name, func(t *testing.T) {
					var cache *rcfile.ChunkCache
					if mode.chunkCap > 0 {
						cache = rcfile.NewChunkCache(mode.chunkCap)
					}
					attachCachedRCFile(t, db, 1024, cache)
					res := RunStreams(db, StreamConfig{
						Streams: streams,
						Rounds:  2,
						Workers: workers,
						Queries: qids,
						Check:   goldenCheck(want),
					})
					for _, err := range res.Errors {
						t.Error(err)
					}
					rounds := streams * 2
					if res.Queries != rounds*len(qids) {
						t.Fatalf("executed %d queries, want %d", res.Queries, rounds*len(qids))
					}
					if got, want := res.Scanned.BytesRead, int64(rounds)*round.BytesRead; got != want {
						t.Fatalf("scans read %d B over %d rounds, want %d: a round did not execute", got, rounds, want)
					}
					if mode.wantChunkHit && res.Scanned.CacheHits == 0 {
						t.Fatal("chunk cache saw no hits although queries share scan columns")
					}
					if mode.chunkCap == 0 && (res.Scanned.CacheHits != 0 || res.Scanned.BytesFromCache != 0) {
						t.Fatalf("cacheless run reported cache traffic: %+v", res.Scanned)
					}
					if res.Scanned.BytesFromCache > res.Scanned.BytesRead {
						t.Fatalf("BytesFromCache %d exceeds BytesRead %d",
							res.Scanned.BytesFromCache, res.Scanned.BytesRead)
					}
				})
			}
		}
	}
}

// TestStreamReportsSharedPool pins the oversubscription-reporting fix:
// the result carries the shared pool size, and the per-stream admission
// cap never exceeds it — no streams × workers arithmetic.
func TestStreamReportsSharedPool(t *testing.T) {
	db := Generate(GenConfig{SF: 0.001, Seed: 1, Random64: true})
	res := RunStreams(db, StreamConfig{Streams: 3, Workers: 1000, Queries: []int{6}})
	if res.PoolWorkers != relal.PoolSize() {
		t.Fatalf("PoolWorkers = %d, want relal.PoolSize() = %d", res.PoolWorkers, relal.PoolSize())
	}
	if res.Workers > res.PoolWorkers {
		t.Fatalf("admitted workers %d exceed the pool %d", res.Workers, res.PoolWorkers)
	}
	res = RunStreams(db, StreamConfig{Streams: 1, Queries: []int{6}})
	if res.Workers != res.PoolWorkers {
		t.Fatalf("Workers = %d with the cap unset, want pool size %d", res.Workers, res.PoolWorkers)
	}
}
