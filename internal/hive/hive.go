// Package hive models Hive 0.7.1 running the TPC-H workload the way the
// paper configured it (HIVE-600 scripts adapted to RCFile, map-side
// aggregation, map joins, bucketed map joins, 128 reducers).
//
// A query executes functionally once (via the shared tpch/relal query
// programs) and its step log is compiled — in written order, with no
// cost-based reordering, exactly Hive's behaviour the paper critiques —
// into a DAG of MapReduce jobs run on the simulated cluster:
//
//   - join following Table 1's physical layouts (partitions, buckets),
//     choosing bucketed map join when both sides are co-bucketed on the
//     join key, map join when the build side fits in task memory, and
//     the shuffle-everything common join otherwise;
//   - map-side partial aggregation fused into the preceding join's
//     reduce phase; standalone aggregations and sorts as extra jobs;
//   - per-query map-join hints mirroring the scripts, including Q22's
//     always-failing map join with its ~400 s backup-task penalty.
package hive

import (
	"fmt"

	"elephants/internal/cluster"
	"elephants/internal/mapreduce"
	"elephants/internal/relal"
	"elephants/internal/sim"
	"elephants/internal/tpch"
)

// Layout is one row of the paper's Table 1 for Hive.
type Layout struct {
	PartitionCol string
	Partitions   int // number of partition directories (0 = unpartitioned)
	BucketCol    string
	Buckets      int // buckets per partition (0 = unbucketed)
}

// TableLayouts reproduces Table 1's Hive column exactly.
var TableLayouts = map[string]Layout{
	"customer": {PartitionCol: "c_nationkey", Partitions: 25, BucketCol: "c_custkey", Buckets: 8},
	"lineitem": {BucketCol: "l_orderkey", Buckets: 512},
	"nation":   {},
	"orders":   {BucketCol: "o_orderkey", Buckets: 512},
	"part":     {BucketCol: "p_partkey", Buckets: 8},
	"partsupp": {BucketCol: "ps_partkey", Buckets: 8},
	"region":   {},
	"supplier": {PartitionCol: "s_nationkey", Partitions: 25, BucketCol: "s_suppkey", Buckets: 8},
}

// Files returns the number of HDFS files the table's layout produces.
func (l Layout) Files() int {
	p := l.Partitions
	if p == 0 {
		p = 1
	}
	b := l.Buckets
	if b == 0 {
		b = 1
	}
	return p * b
}

// NonEmptyFiles returns how many files actually contain rows. The
// sparse o_orderkey population (8 of every 32 keys) leaves only 128 of
// the 512 lineitem/orders buckets non-empty — the paper's Table 4
// observation.
func (l Layout) NonEmptyFiles(table string) int {
	if table == "lineitem" || table == "orders" {
		return 128
	}
	return l.Files()
}

// Config tunes the Hive engine.
type Config struct {
	MR mapreduce.Config
	// RCFileRatio is compressed/uncompressed bytes for RCFile+GZIP base
	// tables (measured ~0.115 on TPC-H text).
	RCFileRatio float64
	// IntermediateRatio is the LZO-style compression on intermediate
	// map output.
	IntermediateRatio float64
	// MapJoinBuildLimit is the largest build side (bytes at target SF)
	// eligible for an unhinted map join.
	MapJoinBuildLimit int64
	// MapJoinFailTime is the stall before a hinted map join fails with
	// a Java heap error and a backup common join launches (Q22).
	MapJoinFailTime sim.Duration
	// PredicatePushdown enables the what-if the paper's Hive lacked:
	// scans consume the skipped-bytes ratio from the query's step log
	// (column subsets plus zone-map group pruning) and waive the
	// per-byte decompression CPU charge for pruned chunks. Off by
	// default — the paper-faithful Hive decompresses every chunk of
	// every column, which is exactly its RCFile inefficiency
	// observation; the knob turns that constant into a tunable.
	PredicatePushdown bool
}

// DefaultConfig returns the paper-calibrated tuning.
func DefaultConfig() Config {
	return Config{
		MR:                mapreduce.DefaultConfig(),
		RCFileRatio:       0.115,
		IntermediateRatio: 0.5,
		MapJoinBuildLimit: 700 << 20,
		MapJoinFailTime:   400 * sim.Second,
	}
}

// failingMapJoinHints mirrors the HIVE-600 scripts' MAPJOIN hints that
// the paper observed failing at every scale factor: Q22's sub-query 4
// join of the filtered customers against the order keys.
var failingMapJoinHints = map[int]int{22: 0} // query → join ordinal

// materializedFilterQueries lists queries whose scripts split base-table
// filters into their own sub-query writing a temp table (Q22's
// sub-query 1, which the paper's Table 5 breaks out, including its
// ~50 s filesystem job that merges the output into fewer files).
var materializedFilterQueries = map[int]bool{22: true}

// fsJobTime is the constant-duration filesystem job the paper observed
// after Q22's sub-query 1 at the first three scale factors.
const fsJobTime = 50 * sim.Second

// Warehouse is a Hive deployment: simulated cluster + jobtracker +
// table statistics at a target scale factor.
type Warehouse struct {
	s   *sim.Sim
	cl  *cluster.Cluster
	jt  *mapreduce.JobTracker
	cfg Config
	db  *tpch.DB
	// SF is the *target* scale factor being modeled (e.g. 250 for the
	// paper's 250 GB point); db holds laptop-scale functional data.
	SF float64
}

// New builds a warehouse modeling scale factor sf over db's functional
// data.
func New(s *sim.Sim, cl *cluster.Cluster, db *tpch.DB, sf float64, cfg Config) *Warehouse {
	if cfg.RCFileRatio <= 0 {
		cfg = DefaultConfig()
	}
	return &Warehouse{
		s:   s,
		cl:  cl,
		jt:  mapreduce.NewJobTracker(s, cl, cfg.MR),
		cfg: cfg,
		db:  db,
		SF:  sf,
	}
}

// tableCompressedBytes returns the table's on-disk RCFile size at the
// target SF.
func (w *Warehouse) tableCompressedBytes(table string) int64 {
	return int64(float64(tpch.TextBytes(table, w.SF)) * w.cfg.RCFileRatio)
}

// pruneMap records, per base table, the fraction of scan bytes the
// query's pushdown could skip (from the step log's ScanStats). Empty
// when pushdown is disabled, so every lookup yields zero and scans cost
// exactly what the paper measured.
type pruneMap map[string]float64

func (m pruneMap) frac(table string) float64 { return m[table] }

// scanTasks builds the map tasks for a scan of a base table at the
// target SF: one task per 256 MB block of every non-empty file plus one
// startup-only task per empty file. skipFrac is the pushdown
// skipped-bytes fraction: tasks still read every block, but that share
// of each block skips the decompression CPU charge.
func (w *Warehouse) scanTasks(table string, skipFrac float64) []mapreduce.MapTask {
	layout := TableLayouts[table]
	files := layout.Files()
	nonEmpty := layout.NonEmptyFiles(table)
	bytes := w.tableCompressedBytes(table)
	perFile := bytes / int64(nonEmpty)
	n := len(w.cl.Nodes)
	var tasks []mapreduce.MapTask
	for f := 0; f < nonEmpty; f++ {
		tasks = append(tasks, mapreduce.TasksForFile(perFile, f, n)...)
	}
	for f := nonEmpty; f < files; f++ {
		tasks = append(tasks, mapreduce.MapTask{Node: f % n, InputBytes: 0})
	}
	if skipFrac > 0 {
		for i := range tasks {
			tasks[i].CPUSkipBytes = int64(float64(tasks[i].InputBytes) * skipFrac)
		}
	}
	return tasks
}

// intermediateTasks builds map tasks for scanning a prior job's output:
// 128 reducer files holding bytes total.
func (w *Warehouse) intermediateTasks(bytes int64) []mapreduce.MapTask {
	const files = 128
	per := bytes / files
	n := len(w.cl.Nodes)
	var tasks []mapreduce.MapTask
	for f := 0; f < files; f++ {
		tasks = append(tasks, mapreduce.TasksForFile(per, f, n)...)
	}
	return tasks
}

// input describes one side of a join as the compiler sees it.
type input struct {
	base  string // base table name, "" for intermediates
	bytes int64  // compressed bytes at target SF
}

// JoinStrategy names the physical join choice for reporting.
type JoinStrategy string

// Join strategies.
const (
	CommonJoin      JoinStrategy = "common"
	MapJoin         JoinStrategy = "map"
	BucketedMapJoin JoinStrategy = "bucketed-map"
	FailedMapJoin   JoinStrategy = "map-failed-backup"
)

// JobReport records one executed MR job for analysis output.
type JobReport struct {
	Name     string
	Strategy JoinStrategy
	Stats    mapreduce.Stats
}

// QueryStats is the result of running one TPC-H query on Hive.
type QueryStats struct {
	Query int
	Total sim.Duration
	Jobs  []JobReport
	// Answer is the functional result (identical to the reference
	// executor's, since the same query program produced it).
	Answer *relal.Table
}

// MapPhase returns the map-phase time of the i-th job (Table 4 wants
// Q1's first job).
func (q QueryStats) MapPhase(i int) sim.Duration {
	if i < 0 || i >= len(q.Jobs) {
		return 0
	}
	return q.Jobs[i].Stats.MapPhase
}

// RunQuery executes TPC-H query id: functionally for the answer, then
// as a compiled MR DAG on the simulated cluster for timing. It blocks
// the calling process for the query's virtual duration.
func (w *Warehouse) RunQuery(p *sim.Proc, id int) QueryStats {
	answer, log := tpch.RunQuery(id, w.db)
	qs := QueryStats{Query: id, Answer: answer}
	start := p.Now()
	ratio := w.SF / w.db.SF

	// scaled converts laptop-measured step bytes to target-SF bytes
	// with intermediate compression.
	scaled := func(rows, width int) int64 {
		return int64(float64(rows) * float64(width) * ratio * w.cfg.IntermediateRatio)
	}

	// With pushdown enabled, collect the per-table skipped-bytes
	// fraction the functional scans measured.
	pruned := pruneMap{}
	if w.cfg.PredicatePushdown {
		pruned = pruneMap(log.SkippedScanFracs())
	}

	// Track the "current" intermediate: Hive chains jobs, each
	// consuming the previous output.
	joinOrdinal := 0
	var lastOut int64 // bytes of the last job's output at target SF
	lastWasJoin := false
	materialized := map[string]int64{} // base table → temp-table bytes

	inputFor := func(base string, rows, width int) input {
		if base != "" {
			if bytes, ok := materialized[base]; ok {
				return input{bytes: bytes}
			}
			return input{base: base, bytes: w.tableCompressedBytes(base)}
		}
		return input{bytes: scaled(rows, width)}
	}

	report := func(name string, strategy JoinStrategy, st mapreduce.Stats) {
		qs.Jobs = append(qs.Jobs, JobReport{Name: name, Strategy: strategy, Stats: st})
	}
	runJob := func(name string, strategy JoinStrategy, job *mapreduce.Job) {
		report(name, strategy, w.jt.Run(p, job))
	}

	for _, step := range log.Widths() {
		switch step.Kind {
		case relal.StepFilter:
			// Normally folded into the consuming job's table scan, but
			// some scripts materialize the first base-table filter
			// into a temp table as its own sub-query (Q22).
			if materializedFilterQueries[id] && step.LeftBase != "" {
				if _, done := materialized[step.LeftBase]; !done {
					out := scaled(step.OutRows, step.OutWidth)
					job := &mapreduce.Job{
						Name:        fmt.Sprintf("q%d-filter-%s", id, step.LeftBase),
						MapTasks:    w.scanTasks(step.LeftBase, pruned.frac(step.LeftBase)),
						MapOnly:     true,
						OutputBytes: out,
					}
					runJob(job.Name, "", job)
					if w.SF < 16000 {
						// The constant filesystem job merging output
						// files (paper: ~50 s at the first three SFs).
						p.Sleep(fsJobTime)
					}
					materialized[step.LeftBase] = out
					lastOut = out
					lastWasJoin = false
				}
			}
			continue
		case relal.StepScan, relal.StepLimit:
			// Folded into the consuming job's table scan.
			continue
		case relal.StepJoin:
			left := inputFor(step.LeftBase, step.LeftRows, step.LeftWidth)
			right := inputFor(step.RightBase, step.RightRows, step.RightWidth)
			out := scaled(step.OutRows, step.OutWidth)
			w.runJoin(p, runJob, report, id, joinOrdinal, step, left, right, out, pruned)
			joinOrdinal++
			lastOut = out
			lastWasJoin = true
		case relal.StepAgg:
			if lastWasJoin {
				// Partial aggregation fused into the join's reduce
				// phase (the paper: "During this join, a partial
				// aggregation ... is performed"). The global agg is a
				// small follow-up job.
				out := scaled(step.OutRows, step.OutWidth)
				job := &mapreduce.Job{
					Name:         fmt.Sprintf("q%d-global-agg", id),
					MapTasks:     w.intermediateTasks(lastOut / 16), // partials are small
					Reducers:     128,
					ShuffleBytes: out,
					OutputBytes:  out,
				}
				runJob(job.Name, "", job)
				lastOut = out
				lastWasJoin = false
				continue
			}
			// Standalone aggregation (e.g. Q1): scan input with
			// map-side aggregation, shuffle partials, reduce.
			var tasks []mapreduce.MapTask
			if bytes, ok := materialized[step.LeftBase]; ok && step.LeftBase != "" {
				tasks = w.intermediateTasks(bytes)
			} else if step.LeftBase != "" {
				tasks = w.scanTasks(step.LeftBase, pruned.frac(step.LeftBase))
			} else {
				tasks = w.intermediateTasks(scaled(step.LeftRows, step.LeftWidth))
			}
			out := scaled(step.OutRows, step.OutWidth)
			// Map-side aggregation shrinks the shuffle to the partial
			// aggregates (bounded below by the final output).
			shuffle := out * int64(len(w.cl.Nodes))
			job := &mapreduce.Job{
				Name:         fmt.Sprintf("q%d-agg", id),
				MapTasks:     tasks,
				Reducers:     128,
				ShuffleBytes: shuffle,
				OutputBytes:  out,
			}
			runJob(job.Name, "", job)
			lastOut = out
			lastWasJoin = false
		case relal.StepSort:
			// Order-by: one more small job over the previous output.
			out := scaled(step.OutRows, step.OutWidth)
			job := &mapreduce.Job{
				Name:         fmt.Sprintf("q%d-sort", id),
				MapTasks:     w.intermediateTasks(out),
				Reducers:     1, // global order
				ShuffleBytes: out,
				OutputBytes:  out,
			}
			runJob(job.Name, "", job)
			lastOut = out
			lastWasJoin = false
		}
	}
	qs.Total = sim.Duration(p.Now() - start)
	return qs
}

// runJoin picks the join strategy and executes the job(s).
func (w *Warehouse) runJoin(p *sim.Proc, runJob func(string, JoinStrategy, *mapreduce.Job), report func(string, JoinStrategy, mapreduce.Stats), id, ordinal int, step relal.Step, left, right input, out int64, pruned pruneMap) {
	name := fmt.Sprintf("q%d-join-%s", id, step.Table)

	// Hinted-but-failing map join (Q22): stall, then backup common join.
	if ord, ok := failingMapJoinHints[id]; ok && ord == ordinal {
		stallStart := p.Now()
		p.Sleep(w.cfg.MapJoinFailTime)
		st := w.jt.Run(p, w.commonJoinJob(name, step, left, right, out, pruned))
		// Fold the stall into the failed join's total so time
		// breakdowns (Table 5's sub-query 4) account for it.
		st.Start = stallStart
		st.Total = sim.Duration(p.Now() - stallStart)
		report(name, FailedMapJoin, st)
		return
	}

	// Bucketed map join: both sides base tables bucketed on the join
	// key with bucket counts a multiple of each other (lineitem ⋈
	// orders on orderkey). Map tasks scan the big side's buckets and
	// load the matching small-side bucket via the distributed cache.
	if w.bucketAligned(step, left, right) {
		big, small := left, right
		if small.bytes > big.bytes {
			big, small = small, big
		}
		bigLayout := TableLayouts[big.base]
		smallLayout := TableLayouts[small.base]
		tasks := w.scanTasks(big.base, pruned.frac(big.base))
		cachePer := small.bytes / int64(smallLayout.NonEmptyFiles(small.base))
		_ = bigLayout
		for i := range tasks {
			if tasks[i].InputBytes > 0 {
				tasks[i].CacheBytes = cachePer
			}
		}
		job := &mapreduce.Job{
			Name:        name,
			MapTasks:    tasks,
			MapOnly:     true,
			OutputBytes: out,
		}
		runJob(name, BucketedMapJoin, job)
		return
	}

	// Map join: build side small enough for every task's memory.
	small, big := left, right
	if small.bytes > big.bytes {
		small, big = big, small
	}
	if small.bytes <= w.cfg.MapJoinBuildLimit {
		var tasks []mapreduce.MapTask
		if big.base != "" {
			tasks = w.scanTasks(big.base, pruned.frac(big.base))
		} else {
			tasks = w.intermediateTasks(big.bytes)
		}
		for i := range tasks {
			if tasks[i].InputBytes > 0 {
				tasks[i].CacheBytes = small.bytes
			}
		}
		job := &mapreduce.Job{
			Name:        name,
			MapTasks:    tasks,
			MapOnly:     true,
			OutputBytes: out,
		}
		runJob(name, MapJoin, job)
		return
	}

	// Common join: scan both sides, shuffle both, join in reduce.
	runJob(name, CommonJoin, w.commonJoinJob(name, step, left, right, out, pruned))
}

// bucketAligned reports whether both join inputs are base tables
// bucketed on the join key with compatible bucket counts.
func (w *Warehouse) bucketAligned(step relal.Step, left, right input) bool {
	if left.base == "" || right.base == "" {
		return false
	}
	ll, lok := TableLayouts[left.base]
	rl, rok := TableLayouts[right.base]
	if !lok || !rok || ll.Buckets == 0 || rl.Buckets == 0 {
		return false
	}
	// The join key must be each side's bucket column (the key column
	// names differ by prefix: l_orderkey vs o_orderkey; compare the
	// suffix after the prefix underscore).
	if colSuffix(ll.BucketCol) != colSuffix(step.JoinKey) && ll.BucketCol != step.JoinKey {
		return false
	}
	if colSuffix(rl.BucketCol) != colSuffix(step.JoinKey) {
		return false
	}
	if ll.Buckets%rl.Buckets != 0 && rl.Buckets%ll.Buckets != 0 {
		return false
	}
	return true
}

func colSuffix(col string) string {
	for i := 0; i < len(col); i++ {
		if col[i] == '_' {
			return col[i+1:]
		}
	}
	return col
}

// commonJoinJob builds the shuffle join job.
func (w *Warehouse) commonJoinJob(name string, step relal.Step, left, right input, out int64, pruned pruneMap) *mapreduce.Job {
	var tasks []mapreduce.MapTask
	for _, in := range []input{left, right} {
		if in.base != "" {
			tasks = append(tasks, w.scanTasks(in.base, pruned.frac(in.base))...)
		} else if in.bytes > 0 {
			tasks = append(tasks, w.intermediateTasks(in.bytes)...)
		}
	}
	return &mapreduce.Job{
		Name:         name,
		MapTasks:     tasks,
		Reducers:     128,
		ShuffleBytes: left.bytes + right.bytes,
		OutputBytes:  out,
	}
}

// LoadTime models the two-phase load the paper describes: copying text
// into HDFS in parallel (with 3× replication over the network) and the
// conversion job rewriting every table into compressed RCFile.
func (w *Warehouse) LoadTime(p *sim.Proc) sim.Duration {
	start := p.Now()
	n := len(w.cl.Nodes)
	var totalText int64
	for _, t := range tpch.TableNames {
		totalText += tpch.TextBytes(t, w.SF)
	}
	// Phase 1: parallel copy into HDFS; each node writes its share
	// locally and ships two replicas over its NIC.
	per := totalText / int64(n)
	wg := w.s.NewWaitGroup()
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		w.s.Spawn("hdfs-copy", func(cp *sim.Proc) {
			defer wg.Done()
			node := w.cl.Nodes[i]
			node.ReadSeqStriped(cp, per)              // read generated text
			node.WriteSeqStriped(cp, per)             // local replica
			node.Send(cp, w.cl.Nodes[(i+1)%n], 2*per) // two remote replicas
		})
	}
	wg.Wait(p)
	// Phase 2: conversion MR job per table (text → gzip RCFile); gzip
	// is CPU-bound at a few MB/s per task.
	for _, t := range tpch.TableNames {
		text := tpch.TextBytes(t, w.SF)
		layout := TableLayouts[t]
		nonEmpty := layout.NonEmptyFiles(t)
		perFile := text / int64(nonEmpty)
		var tasks []mapreduce.MapTask
		for f := 0; f < nonEmpty; f++ {
			tasks = append(tasks, mapreduce.TasksForFile(perFile, f, n)...)
		}
		job := &mapreduce.Job{
			Name:         "load-" + t,
			MapTasks:     tasks,
			Reducers:     128,
			ShuffleBytes: int64(float64(text) * w.cfg.RCFileRatio),
			OutputBytes:  int64(float64(text) * w.cfg.RCFileRatio),
		}
		w.jt.Run(p, job)
	}
	return sim.Duration(p.Now() - start)
}
