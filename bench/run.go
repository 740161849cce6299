package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"elephants/internal/htap"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// setupRepeats is how many times a run builds the workload from
// nothing. setup_s is the median, which one slow build cannot move; the
// last build is the one the run measures.
const setupRepeats = 3

const numQueries = 22

// outcome is what one run of one workload produced.
type outcome struct {
	attempted int
	vals      *values

	mu     sync.Mutex // concurrent clients report failures
	failed int
}

// fail counts one failed operation and says what failed.
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

// stepTotals sums what the plans' step logs report over a stream's
// timed rounds.
type stepTotals struct {
	scanRows, filterRows, joinRows, aggRows, sortRows int64
	sortNanos                                         int64
	bytesRead, bytesSkipped, groupsSkipped            int64
}

func (s *stepTotals) add(log relal.StepLog) {
	s.sortNanos += log.SortNanos
	for _, st := range log.Steps {
		switch st.Kind {
		case relal.StepScan:
			s.scanRows += int64(st.OutRows)
			s.bytesRead += st.ScanBytesRead
			s.bytesSkipped += st.ScanBytesSkipped
			s.groupsSkipped += int64(st.ScanGroupsSkipped)
		case relal.StepFilter:
			s.filterRows += int64(st.LeftRows)
		case relal.StepJoin:
			s.joinRows += int64(st.LeftRows + st.RightRows)
		case relal.StepAgg:
			s.aggRows += int64(st.LeftRows)
		case relal.StepSort:
			s.sortRows += int64(st.LeftRows)
		}
	}
}

func (s *stepTotals) merge(o stepTotals) {
	s.scanRows += o.scanRows
	s.filterRows += o.filterRows
	s.joinRows += o.joinRows
	s.aggRows += o.aggRows
	s.sortRows += o.sortRows
	s.sortNanos += o.sortNanos
	s.bytesRead += o.bytesRead
	s.bytesSkipped += o.bytesSkipped
	s.groupsSkipped += o.groupsSkipped
}

// streamStats is one closed-loop query stream's samples. Times are in
// milliseconds.
type streamStats struct {
	perQuery [numQueries + 1][]float64
	// rounds holds every round's time, the sum of its 22 query times, so
	// that answer checks between queries stay out of it. traced and
	// plain split the same rounds by whether spans were recorded.
	rounds, traced, plain []float64
	steps                 stepTotals
	lag                   []float64
	last                  [numQueries + 1]*relal.Table
	attempted             int
}

// queryOrder is stream s's fixed order of the 22 queries.
func queryOrder(seed int64, s int) []int {
	order := rand.New(rand.NewSource(seed*131 + int64(s))).Perm(numQueries)
	for i := range order {
		order[i]++
	}
	return order
}

// merge adds another stream's samples.
func (st *streamStats) merge(o *streamStats) {
	for id := range st.perQuery {
		st.perQuery[id] = append(st.perQuery[id], o.perQuery[id]...)
	}
	st.rounds = append(st.rounds, o.rounds...)
	st.traced = append(st.traced, o.traced...)
	st.plain = append(st.plain, o.plain...)
	st.lag = append(st.lag, o.lag...)
	st.steps.merge(o.steps)
	st.attempted += o.attempted
}

// report sets the metrics that come from query samples and step logs
// and returns the number of queries that completed.
func (st *streamStats) report(v *values, elapsed float64) int {
	var medians, all []float64
	for id := 1; id <= numQueries; id++ {
		m := median(st.perQuery[id])
		medians = append(medians, m)
		all = append(all, st.perQuery[id]...)
		v.set(fmt.Sprintf("tpch.q%d_p50_ms", id), m)
	}
	rounds := float64(len(st.rounds))
	v.set("query_qps", float64(len(all))/elapsed)
	v.set("round_p50_ms", median(st.rounds))
	v.set("query_geomean_ms", geomean(medians))
	v.set("tpch.round_p90_ms", quantile(st.rounds, 0.9))
	v.set("tpch.query_p99_ms", quantile(all, 0.99))
	v.set("bench.rounds", rounds)
	v.set("bench.queries", float64(len(all)))
	v.set("bench.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	steps := st.steps
	v.set("relal.scan_rows_per_round", ratio(float64(steps.scanRows), rounds))
	v.set("relal.filter_rows_per_round", ratio(float64(steps.filterRows), rounds))
	v.set("relal.join_rows_per_round", ratio(float64(steps.joinRows), rounds))
	v.set("relal.agg_rows_per_round", ratio(float64(steps.aggRows), rounds))
	v.set("relal.sort_rows_per_round", ratio(float64(steps.sortRows), rounds))
	v.set("relal.sort_ms_per_round", ratio(float64(steps.sortNanos)/1e6, rounds))
	v.set("rcfile.bytes_read_per_round", ratio(float64(steps.bytesRead), rounds))
	v.set("rcfile.bytes_skipped_per_round", ratio(float64(steps.bytesSkipped), rounds))
	v.set("rcfile.groups_skipped_per_round", ratio(float64(steps.groupsSkipped), rounds))
	v.set("rcfile.skipped_frac", ratio(float64(steps.bytesSkipped), float64(steps.bytesRead+steps.bytesSkipped)))
	return len(all)
}

// runStream runs rounds of the 22 queries until the deadline; a round
// in flight at the deadline finishes and counts. With a tracer, every
// other round records spans, so the same run gives the traced and the
// untraced round time.
func runStream(cfg config, e *env, s int, tr *tracer, root int64, ref *reference, deadline time.Time, o *outcome) *streamStats {
	st := &streamStats{}
	db := e.db
	pos := &streamTrace{tr: tr}
	if tr != nil {
		db = e.traceDB(pos)
	}
	order := queryOrder(cfg.seed, s)
	for round := 0; time.Now().Before(deadline); round++ {
		traceRound := tr != nil && round%2 == 0
		var roundSpan int64
		if traceRound {
			roundSpan = tr.begin(root, 0, "round")
		}
		roundMS := 0.0
		for _, id := range order {
			if traceRound {
				pos.query = id
				pos.parent = tr.begin(roundSpan, id, "query")
			}
			st.attempted++
			t0 := time.Now()
			out, log, err := e.query(db, id)
			ms := float64(time.Since(t0)) / 1e6
			if traceRound {
				tr.end(pos.parent)
				pos.parent = 0
			}
			if err != nil {
				o.fail("stream %d Q%d: %v", s, id, err)
				continue
			}
			st.perQuery[id] = append(st.perQuery[id], ms)
			roundMS += ms
			st.steps.add(log)
			st.last[id] = out
			if e.store != nil {
				st.lag = append(st.lag, float64(e.store.StatsNow().LagRecords))
			} else if cfg.check {
				// While htap-mixed writes, answers move with the data;
				// every other workload's answers never change.
				ref.check(o, fmt.Sprintf("stream %d round %d", s, round), id, out)
			}
		}
		tr.end(roundSpan)
		st.rounds = append(st.rounds, roundMS)
		if traceRound {
			st.traced = append(st.traced, roundMS)
		} else {
			st.plain = append(st.plain, roundMS)
		}
	}
	return st
}

// writeStats is the paced writer's samples, in milliseconds.
type writeStats struct {
	lat, late []float64
	acked     int
	bytes     int64
}

// runWriter sends ops on an open-loop schedule of writeRate per second
// until the deadline and returns how many ops it consumed. An op's
// latency runs from when it was due, so a stall is charged to every op
// it delays; late is how far behind schedule the generator itself was
// when it sent the op.
func runWriter(e *env, tr *tracer, root int64, start, deadline time.Time, o *outcome) (writeStats, int) {
	var ws writeStats
	next := 0
	for ; next < len(e.ops); next++ {
		due := start.Add(time.Duration(float64(next) / writeRate * float64(time.Second)))
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		op := e.ops[next]
		span := tr.begin(root, 0, "write")
		e.fsc.writeSpan.Store(span)
		sent := time.Now()
		_, err := e.store.AppendBSON(op.table, op.pos, op.bson)
		done := time.Now()
		e.fsc.writeSpan.Store(0)
		tr.end(span)
		if err != nil {
			o.fail("write %s@%d: %v", op.table, op.pos, err)
			continue
		}
		ws.acked++
		ws.bytes += int64(len(op.bson))
		ws.lat = append(ws.lat, float64(done.Sub(due))/1e6)
		ws.late = append(ws.late, float64(sent.Sub(due))/1e6)
	}
	return ws, next
}

// references holds the expected answers, computed once per run.
type references struct {
	full *reference // the whole dataset
	base *reference // htap-mixed before any write: the held rows missing
}

// setupOnce generates the data, builds the workload's serving state and
// runs the warm-up round, checking its answers. It returns the
// environment, the set-up time, warm-up included, and the generation
// time. Computing and comparing reference answers is the benchmark's own
// work, not set-up, and is left out.
func setupOnce(cfg config, tr *tracer, refs *references, o *outcome) (*env, float64, float64, error) {
	t0 := time.Now()
	db := tpch.Generate(cfg.gen())
	genS := time.Since(t0).Seconds()
	if refs.full == nil {
		r, err := newReference(cfg, db)
		if err != nil {
			return nil, 0, 0, err
		}
		refs.full = r
	}

	t0 = time.Now()
	e, err := buildEnv(cfg, db, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	total := genS + time.Since(t0).Seconds()

	want := refs.full
	if e.store != nil {
		if refs.base == nil {
			refs.base = baseReference(db, e.hold)
		}
		want = refs.base
	}
	for id := 1; id <= numQueries; id++ {
		t0 = time.Now()
		out, _, err := e.query(e.db, id)
		total += time.Since(t0).Seconds()
		o.attempted++
		if err != nil {
			o.fail("warm-up Q%d: %v", id, err)
			continue
		}
		want.check(o, "warm-up", id, out)
	}
	return e, total, genS, nil
}

// storeCounts is the durable side's cumulative counters at one instant.
type storeCounts struct {
	fs               fsSnapshot
	appends, flushes int64
	logBytes         int64
}

func (e *env) storeCounts() storeCounts {
	c := storeCounts{fs: e.fsc.snapshot(), logBytes: fileSize(filepath.Join(e.dir, "delta.log"))}
	c.appends, c.flushes = e.store.Log().Stats()
	return c
}

// runWorkload is one whole run: set-up, the timed phase, the checks
// after it and, when tracing, the layer probes.
func runWorkload(cfg config) (*outcome, error) {
	o := &outcome{vals: newValues()}
	v := o.vals
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}

	var (
		refs           references
		e              *env
		setups, genSec []float64
	)
	defer func() {
		if e != nil {
			// An earlier error is already on its way out.
			_ = e.close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			err := e.close()
			e = nil
			if err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
			// Earlier set-ups' garbage should not raise this one's peak.
			runtime.GC()
		}
		var total, genS float64
		var err error
		e, total, genS, err = setupOnce(cfg, tr, &refs, o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, total)
		genSec = append(genSec, genS)
	}
	ref := refs.full
	v.set("setup_s", median(setups))
	v.set("tpch.gen_s", median(genSec))
	v.set("rcfile.encode_s", e.encodeS)
	v.set("rcfile.stored_bytes", float64(e.rcfBytes))
	v.set("rcfile.stored_per_user_byte", ratio(float64(e.rcfBytes), float64(e.rcfText)))
	v.set("dist.shard_boot_s", e.bootS)

	// The timed phase.
	var hits0, misses0 int64
	var len0 int
	if e.cache != nil {
		hits0, misses0 = e.cache.Stats()
		len0 = e.cache.Len()
	}
	var store0 storeCounts
	if e.store != nil {
		store0 = e.storeCounts()
	}
	var requests0 int64
	if e.coord != nil {
		requests0 = e.coord.Stats()["dist_requests"]
	}
	proc0 := readProc()
	root := tr.begin(0, 0, "workload:"+cfg.workload)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))

	streams := make([]*streamStats, e.streams)
	var wg sync.WaitGroup
	for s := range streams {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			streams[s] = runStream(cfg, e, s, tr, root, ref, deadline, o)
		}(s)
	}
	var ws writeStats
	nextOp := 0
	if e.store != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws, nextOp = runWriter(e, tr, root, start, deadline, o)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	tr.end(root)
	proc1 := readProc()

	var all streamStats
	for _, st := range streams {
		all.merge(st)
	}
	o.attempted += all.attempted
	queries := all.report(v, elapsed)
	if queries == 0 {
		return nil, fmt.Errorf("no query completed in %.1f s", cfg.seconds)
	}
	rounds := float64(len(all.rounds))

	var hitRatio, evictions, usedMB float64
	if e.cache != nil {
		hits, misses := e.cache.Stats()
		hitRatio = ratio(float64(hits-hits0), float64(hits-hits0+misses-misses0))
		// Every miss inserts one chunk; those no longer resident left.
		evictions = float64(misses-misses0) - float64(e.cache.Len()-len0)
		usedMB = float64(e.cache.UsedBytes()) / (1 << 20)
	}
	v.set("rcfile.cache_hit_ratio", hitRatio)
	v.set("rcfile.cache_evictions_per_round", evictions/rounds)
	v.set("rcfile.cache_used_mb", usedMB)

	v.set("proc.cpu_ms_per_query", float64(proc1.cpuNanos-proc0.cpuNanos)/1e6/float64(queries))
	v.set("proc.alloc_mb_per_round", float64(proc1.allocBytes-proc0.allocBytes)/(1<<20)/rounds)
	v.set("proc.mallocs_per_round", float64(proc1.mallocs-proc0.mallocs)/rounds)
	v.set("proc.gc_pause_ms", float64(proc1.gcPauseNs-proc0.gcPauseNs)/1e6)

	// After the clock.
	var logData []byte
	if e.store != nil {
		v.set("htap.convert_lag_p50_rows", median(all.lag))
		v.set("htap.convert_lag_max_rows", quantile(all.lag, 1))
		logData = htapAfterClock(cfg, e, ref, o, ws, nextOp, elapsed, store0)
	} else {
		for _, name := range htapOnlyMetrics {
			v.set(name, 0)
		}
		// Answers do not change here, so the last round of every stream
		// must equal the reference.
		for s, st := range streams {
			for id := 1; id <= numQueries; id++ {
				if st.last[id] != nil {
					ref.check(o, fmt.Sprintf("stream %d final round", s), id, st.last[id])
				}
			}
		}
	}

	var stats map[string]int64
	if e.coord != nil {
		stats = e.coord.Stats()
	}
	v.set("dist.requests_per_round", float64(stats["dist_requests"]-requests0)/rounds)
	v.set("dist.retries", float64(stats["dist_retries"]))
	v.set("dist.breaker_trips", float64(stats["dist_breaker_trips"]))
	v.set("dist.partials", float64(stats["dist_partials"]))

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	v.set("peak_rss_mb", rss)

	if tr != nil {
		tracedRounds := float64(len(all.traced))
		sums := sumSpans(tr.spans)
		perRound := func(ns int64) float64 { return ratio(float64(ns)/1e6, tracedRounds) }
		v.set("relal.self_ms_per_round", perRound(sums.querySelf))
		v.set("rcfile.scan_ms_per_round", perRound(sums.scanByLayer["rcfile"]))
		v.set("htap.scan_ms_per_round", perRound(sums.scanByLayer["htap"]))
		v.set("dist.scan_ms_per_round", perRound(sums.scanByLayer["dist"]))
		v.set("bench.trace_overhead_frac", ratio(median(all.traced), median(all.plain))-1)
		v.set("bench.spans", float64(len(tr.spans)))
		runProbes(e, logData, v)
		if err := tr.write(cfg.outDir, cfg.workload); err != nil {
			return nil, err
		}
	}

	err = e.close()
	e = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	v.set("proc.goroutines_end", float64(runtime.NumGoroutine()))

	if cfg.check && cfg.workload == htapMixed {
		if err := checkDurability(cfg, ref, o); err != nil {
			return nil, fmt.Errorf("durability check: %w", err)
		}
	}
	return o, nil
}

// htapOnlyMetrics are measured where a store takes writes and reported
// as 0 by the other workloads.
var htapOnlyMetrics = []string{
	"htap.write_p50_ms", "htap.write_p99_ms", "htap.write_late_p99_ms", "htap.write_ops_s", "bench.writes",
	"htap.convert_lag_p50_rows", "htap.convert_lag_max_rows", "htap.converts", "htap.drain_s",
	"htap.recovery_s", "htap.frames_replayed", "htap.parts_recovered", "htap.stored_per_user_byte",
	"delta.flushes_per_write", "delta.log_bytes_per_write",
	"fault.fsyncs_per_write", "fault.appends_per_write", "fault.bytes_per_user_byte",
	"fault.fsync_p50_ms", "fault.fsync_ms_total",
}

// htapAfterClock finishes the htap-mixed run: it reports the write
// phase, appends the rows the paced writer did not reach, drains the
// pipeline, checks all answers, measures stored bytes, and closes and
// recovers the store. In a traced run it returns the delta log's bytes
// for the replay probe.
func htapAfterClock(cfg config, e *env, ref *reference, o *outcome, ws writeStats, nextOp int, elapsed float64, c0 storeCounts) []byte {
	v := o.vals
	o.attempted += nextOp
	writes := float64(ws.acked)
	v.set("htap.write_p50_ms", median(ws.lat))
	v.set("htap.write_p99_ms", quantile(ws.lat, 0.99))
	v.set("htap.write_late_p99_ms", quantile(ws.late, 0.99))
	v.set("htap.write_ops_s", writes/elapsed)
	v.set("bench.writes", writes)

	c1 := e.storeCounts()
	syncMS := e.fsc.syncMillisSince(c0.fs)
	// The converter's part files go through the same file system, so
	// fault.* counts all durable traffic the writes caused; delta.* is
	// the log's share.
	v.set("fault.fsyncs_per_write", ratio(float64(c1.fs.syncs-c0.fs.syncs), writes))
	v.set("fault.appends_per_write", ratio(float64(c1.fs.appends-c0.fs.appends), writes))
	v.set("fault.bytes_per_user_byte", ratio(float64(c1.fs.bytes-c0.fs.bytes), float64(ws.bytes)))
	v.set("fault.fsync_p50_ms", median(syncMS))
	total := 0.0
	for _, ms := range syncMS {
		total += ms
	}
	v.set("fault.fsync_ms_total", total)
	v.set("delta.flushes_per_write", ratio(float64(c1.flushes-c0.flushes), float64(c1.appends-c0.appends)))
	v.set("delta.log_bytes_per_write", ratio(float64(c1.logBytes-c0.logBytes), writes))

	userBytes := ws.bytes
	for _, op := range e.ops[nextOp:] {
		o.attempted++
		if _, err := e.store.AppendBSON(op.table, op.pos, op.bson); err != nil {
			o.fail("write %s@%d after the clock: %v", op.table, op.pos, err)
			continue
		}
		userBytes += int64(len(op.bson))
	}

	e.store.StopConverter()
	t0 := time.Now()
	if err := e.store.Quiesce(); err != nil {
		o.fail("quiesce: %v", err)
	}
	if err := e.store.ConvertAll(); err != nil {
		o.fail("convert all: %v", err)
	}
	v.set("htap.drain_s", time.Since(t0).Seconds())
	v.set("htap.converts", float64(e.store.StatsNow().Converts))

	for id := 1; id <= numQueries; id++ {
		o.attempted++
		out, _, err := e.query(e.db, id)
		if err != nil {
			o.fail("drained Q%d: %v", id, err)
			continue
		}
		ref.check(o, "drained", id, out)
	}
	v.set("htap.stored_per_user_byte", ratio(float64(dirSize(e.dir)), float64(userBytes)))

	var logData []byte
	if cfg.trace {
		logData = e.store.Log().Data()
	}
	err := e.store.Close()
	e.store = nil
	if err != nil {
		o.fail("close store: %v", err)
	}
	t0 = time.Now()
	reopened, err := htap.Open(e.db, e.hold, e.storeCfg)
	v.set("htap.recovery_s", time.Since(t0).Seconds())
	var st htap.Stats
	if err != nil {
		o.fail("recover store: %v", err)
	} else {
		// Every held row was acknowledged before the close, so recovery
		// must bring every one of them back.
		for _, name := range sortedKeys(e.hold) {
			if got, want := reopened.NextPos(name), int64(e.hold[name]); got != want {
				o.fail("recovered %s up to position %d, %d rows were acknowledged", name, got, want)
			}
		}
		st = reopened.StatsNow()
		if err := reopened.Close(); err != nil {
			o.fail("close recovered store: %v", err)
		}
	}
	v.set("htap.frames_replayed", float64(st.FramesReplayed))
	v.set("htap.parts_recovered", float64(st.PartsRecovered))
	return logData
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fileSize is the file's size, 0 if it does not exist.
func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// dirSize totals the files directly in dir.
func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, ent := range entries {
		total += fileSize(filepath.Join(dir, ent.Name()))
	}
	return total
}
