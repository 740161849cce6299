// Concurrent query streams: the paper-side scale experiment the
// columnar executor unlocks. Vectors are immutable after generation and
// every operator output is private to its Exec, so N goroutine streams
// can replay the 22 queries against one shared DB with no coordination
// beyond the source registry mutex — the Polynesia-style
// shared-immutable-data concurrency model. The harness measures
// aggregate throughput (queries per second) and per-query wall time,
// and optionally validates every answer in-flight.
package tpch

import (
	"fmt"
	"sync"
	"time"

	"elephants/internal/relal"
)

// StreamConfig scopes one concurrent-stream run.
type StreamConfig struct {
	// Streams is the number of concurrent query streams (0 = 1).
	Streams int
	// Rounds is how many times each stream replays the query list
	// (0 = 1).
	Rounds int
	// Workers is each query's admission cap on the shared core budget
	// (0 = relal.PoolSize(), 1 = serial). All streams share one
	// process-wide set of relal.PoolSize() helpers, so streams do NOT
	// multiply with workers: beyond the stream goroutines themselves,
	// total execution parallelism is bounded by the helpers regardless
	// of stream count.
	Workers int
	// Queries restricts the replayed query IDs (nil = all 22).
	Queries []int
	// Warmup runs one untimed serial round first, so lazily-built state
	// (source registry, zone-map caches, width caches) is in place
	// before the clock starts.
	Warmup bool
	// Check, when non-nil, is called with every answer produced by every
	// stream; a non-nil error is collected into the result. Callers use
	// it to pin stream answers against the golden snapshot.
	Check func(stream, round, id int, out *relal.Table) error
}

// StreamResult reports one run.
type StreamResult struct {
	Streams, Rounds int
	// Workers is the resolved per-stream admission cap: how many
	// goroutines may work on one kernel of a stream's current query at
	// once. It never exceeds PoolWorkers — the old streams × workers
	// oversubscription arithmetic is gone because streams share the
	// helpers.
	Workers int
	// PoolWorkers is the number of process-wide helpers all streams
	// drew from (relal.PoolSize()).
	PoolWorkers int
	// Queries is the total number of queries executed across streams.
	Queries int
	// Elapsed is the wall time of the timed phase.
	Elapsed time.Duration
	// QPS is Queries / Elapsed.
	QPS float64
	// PerQuery accumulates wall time per query ID, summed across
	// streams and rounds.
	PerQuery map[int]time.Duration
	// Scanned is the byte accounting summed over every scan step of
	// every stream (per-Exec step logs merged after the run).
	Scanned relal.ScanStats
	// Errors collects Check failures (nil when every answer passed).
	Errors []error
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Streams <= 0 {
		c.Streams = 1
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if len(c.Queries) == 0 {
		for _, q := range Queries {
			c.Queries = append(c.Queries, q.ID)
		}
	}
	return c
}

// streamTally is one stream's private measurement state, merged under a
// lock only after the stream finishes.
type streamTally struct {
	perQuery map[int]time.Duration
	scanned  relal.ScanStats
	queries  int
	errs     []error
}

// RunStreams replays the configured queries as cfg.Streams concurrent
// goroutine streams over the shared db and reports aggregate throughput.
// Every stream runs the same query list in the same order; answers are
// identical across streams, rounds, and worker counts (see the golden
// stream tests), so throughput is the only thing that varies.
func RunStreams(db *DB, cfg StreamConfig) StreamResult {
	cfg = cfg.withDefaults()
	if cfg.Warmup {
		for _, id := range cfg.Queries {
			RunQueryWorkers(id, db, 1)
		}
	}

	tallies := make([]streamTally, cfg.Streams)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < cfg.Streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			tally := streamTally{perQuery: make(map[int]time.Duration)}
			for round := 0; round < cfg.Rounds; round++ {
				for _, id := range cfg.Queries {
					qStart := time.Now()
					out, log := RunQueryWorkers(id, db, cfg.Workers)
					for _, step := range log.Steps {
						if step.Kind == relal.StepScan {
							tally.scanned.Add(relal.ScanStats{
								BytesRead:      step.ScanBytesRead,
								BytesSkipped:   step.ScanBytesSkipped,
								BytesFromCache: step.ScanBytesFromCache,
								GroupsRead:     step.ScanGroupsRead,
								GroupsSkipped:  step.ScanGroupsSkipped,
								CacheHits:      step.ScanCacheHits,
								CacheMisses:    step.ScanCacheMisses,
								CorruptChunks:  step.ScanCorruptChunks,
							})
						}
					}
					tally.perQuery[id] += time.Since(qStart)
					tally.queries++
					if cfg.Check != nil {
						if err := cfg.Check(s, round, id, out); err != nil {
							tally.errs = append(tally.errs,
								fmt.Errorf("stream %d round %d Q%d: %w", s, round, id, err))
						}
					}
				}
			}
			tallies[s] = tally
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)

	pool := relal.PoolSize()
	workers := cfg.Workers
	if workers <= 0 || workers > pool {
		workers = pool // the cap a stream can actually be admitted at
	}
	res := StreamResult{
		Streams: cfg.Streams, Rounds: cfg.Rounds,
		Workers: workers, PoolWorkers: pool,
		Elapsed:  elapsed,
		PerQuery: make(map[int]time.Duration),
	}
	for _, tally := range tallies {
		res.Queries += tally.queries
		for id, d := range tally.perQuery {
			res.PerQuery[id] += d
		}
		res.Scanned.Add(tally.scanned)
		res.Errors = append(res.Errors, tally.errs...)
	}
	if elapsed > 0 {
		res.QPS = float64(res.Queries) / elapsed.Seconds()
	}
	return res
}
