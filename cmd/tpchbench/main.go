// Command tpchbench regenerates the paper's TPC-H artifacts: Table 2
// (load times), Table 3 (22 queries × 4 scale factors with speedups and
// scaling factors), Table 4 (Q1 map-phase time), Table 5 (Q22 sub-query
// breakdown), and Figure 1 (normalized means), comparing the Hive and
// PDW models on the simulated 16-node cluster.
//
// With -streams N it instead runs the concurrent query-stream harness:
// N goroutine streams replay the 22 queries over one shared immutable
// DB and the aggregate throughput (executed queries per second) is
// reported.
//
// With -htap it runs the combined HTAP harness: closed-loop write
// clients replay held-back rows through the delta-log write path while
// the analytical streams run, and the report covers write ops/sec,
// analytical QPS, and freshness lag.
//
// Usage:
//
//	tpchbench [-laptop-sf 0.002] [-sf 250,1000,4000,16000] [-queries 1,5,19] [-workers N]
//	tpchbench -streams N [-stream-rounds R] [-laptop-sf 0.01] [-workers N]
//	          [-stream-rcfile] [-cache-mb M]
//	tpchbench -htap [-laptop-sf 0.01] [-writers N] [-target-ops R] [-hold-frac F]
//	          [-streams N] [-stream-rounds R] [-stream-rcfile] [-cache-mb M]
//	          [-convert-rows N] [-durable DIR] [-sync-policy group|always|none]
//	          [-fault-seed S]
//	tpchbench -dist N [-laptop-sf 0.005] [-dist-fault-seed S] [-dist-procs]
//	          [-dist-recovery] [-stream-rounds R] [-queries 6,12] [-workers N]
//
// -laptop-sf 0 (the default) means the mode's own scale, shown in the
// usage lines above; each mode prints the scale it ran at.
//
// With -dist N the 22 queries stream through a coordinator scattering
// over N localhost shard servers (hash-partitioned orders+lineitem,
// each with a durable delta log); every answer is merged back exactly.
// -dist-fault-seed injects seeded network faults (drops, truncations,
// duplicates, resets, delays) that the retry/CRC machinery must absorb;
// -dist-recovery kills and restarts a shard and times kill → first
// exact answer.
//
// With -durable the delta log (and, with -stream-rcfile, the converted
// parts) live on disk under DIR; the run ends by closing the store and
// timing a reopen + replay, reported in the "durable" block. A non-zero
// -fault-seed injects transient part-write faults to exercise the
// converter's retry path.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"elephants/internal/core"
	"elephants/internal/dist"
)

func main() {
	// A re-exec with DIST_SHARD_CONFIG set is a shard child, not a
	// bench run: serve the shard and never parse flags.
	if dist.MaybeShardMain() {
		return
	}
	laptopSF := flag.Float64("laptop-sf", 0, "functional dataset scale factor (0 = the mode's default: 0.002 tables, 0.01 -streams/-htap, 0.005 -dist)")
	sfList := flag.String("sf", "250,1000,4000,16000", "modeled scale factors (GB), comma-separated")
	queries := flag.String("queries", "", "query IDs to run (default: all 22)")
	seed := flag.Int64("seed", 1, "generator seed")
	workers := flag.Int("workers", 0, "executor worker-pool size (0 = GOMAXPROCS, 1 = serial)")
	streams := flag.Int("streams", 0, "run N concurrent query streams instead of the paper tables")
	streamRounds := flag.Int("stream-rounds", 3, "rounds of the query list per stream")
	streamRCFile := flag.Bool("stream-rcfile", false, "back stream scans with RCFile-encoded tables (enables the chunk cache)")
	cacheMB := flag.Int("cache-mb", 64, "shared decompressed-chunk cache capacity in MiB (with -stream-rcfile)")
	htapRun := flag.Bool("htap", false, "run the combined HTAP harness (write stream + analytical streams over one store)")
	writers := flag.Int("writers", 4, "closed-loop write clients (with -htap)")
	targetOps := flag.Float64("target-ops", 0, "aggregate write throughput target in ops/sec, 0 = unthrottled (with -htap)")
	holdFrac := flag.Float64("hold-frac", 0.02, "fraction of orders+lineitem rows held back and replayed as writes (with -htap)")
	convertRows := flag.Int("convert-rows", 256, "delta-tail size at which the background converter encodes a columnar part (with -htap)")
	durable := flag.String("durable", "", "directory for the durable delta log and RCF6 parts; the run ends with a close + timed recovery (with -htap)")
	syncPolicy := flag.String("sync-policy", "group", "durable log fsync policy: group, always, or none (with -htap -durable)")
	faultSeed := flag.Int64("fault-seed", 0, "non-zero wraps the durable FS in a seeded fault injector (transient part-write failures; with -htap)")
	distShards := flag.Int("dist", 0, "run the distributed scatter/gather harness over N shard servers")
	distFaultSeed := flag.Int64("dist-fault-seed", 0, "non-zero arms a seeded network fault schedule on every coordinator frame (with -dist)")
	distProcs := flag.Bool("dist-procs", false, "run shards as real OS processes re-executing this binary (with -dist)")
	distRecovery := flag.Bool("dist-recovery", false, "kill + restart one shard after the QPS phase and time recovery (with -dist)")
	flag.Parse()

	var qids []int
	var err error
	if *queries != "" {
		qids, err = parseInts(*queries)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tpchbench:", err)
			os.Exit(1)
		}
	}

	// sfOr resolves -laptop-sf: an explicit value wins, 0 takes the
	// running mode's default.
	sfOr := func(modeDefault float64) float64 {
		if *laptopSF > 0 {
			return *laptopSF
		}
		return modeDefault
	}

	if *distShards > 0 {
		runDist(core.DistConfig{
			LaptopSF: sfOr(0.005), Seed: *seed,
			Shards: *distShards, Rounds: *streamRounds,
			Queries: qids, Workers: *workers,
			FaultSeed: *distFaultSeed, Procs: *distProcs, Recovery: *distRecovery,
		})
		return
	}

	if *htapRun {
		runHTAP(core.HTAPConfig{
			LaptopSF: sfOr(0.01), Seed: *seed, HoldFrac: *holdFrac,
			Writers: *writers, TargetOps: *targetOps,
			Streams: *streams, Rounds: *streamRounds, Workers: *workers,
			Queries: qids, RCFile: *streamRCFile, CacheMB: *cacheMB,
			ConvertRows: *convertRows,
			DurablePath: *durable, SyncPolicy: *syncPolicy, FaultSeed: *faultSeed,
		})
		return
	}

	if *streams > 0 {
		runStreams(core.TPCHStreamConfig{
			LaptopSF: sfOr(0.01), Seed: *seed,
			Streams: *streams, Rounds: *streamRounds, Workers: *workers,
			Queries: qids, RCFile: *streamRCFile, CacheMB: *cacheMB,
		})
		return
	}

	cfg := core.TPCHConfig{LaptopSF: sfOr(0.002), Seed: *seed, Workers: *workers, Queries: qids}
	cfg.ScaleFactors, err = parseFloats(*sfList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpchbench:", err)
		os.Exit(1)
	}

	fmt.Printf("TPC-H: Hive vs PDW on a simulated 16-node cluster (functional data at SF %g)\n\n", cfg.LaptopSF)
	res := core.RunTPCH(cfg)
	res.WriteTable2(os.Stdout)
	fmt.Println()
	res.WriteTable3(os.Stdout)
	fmt.Println()
	res.WriteTable4(os.Stdout)
	fmt.Println()
	res.WriteTable5(os.Stdout)
	fmt.Println()
	res.WriteFigure1(os.Stdout)
}

// runDist executes the distributed scatter/gather harness and prints
// its summary.
func runDist(cfg core.DistConfig) {
	res, err := core.RunDist(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpchbench:", err)
		os.Exit(1)
	}
	s := res.Stats
	mode := "in-process"
	if res.Config.Procs {
		mode = "OS-process"
	}
	fmt.Printf("Distributed: %d %s shard(s), %d round(s) of %d query ids (functional data at SF %g)\n",
		res.Config.Shards, mode, res.Config.Rounds, res.Queries/res.Config.Rounds, cfg.LaptopSF)
	fmt.Printf("  %d exact answers in %v  =>  %.2f queries/sec\n", res.Queries, res.Elapsed, res.QPS)
	fmt.Printf("  wire: %d requests, %d retries, %d fail-fast, breaker %d trip(s)/%d close(s), %d partials, %d net faults injected (seed %d)\n",
		s["dist_requests"], s["dist_retries"], s["dist_failfast"],
		s["dist_breaker_trips"], s["dist_breaker_closes"], s["dist_partials"],
		s["net_faults_injected"], res.Config.FaultSeed)
	if r := res.Recovery; r != nil {
		fmt.Printf("  recovery: shard %d killed + restarted; first exact answer %.1f ms after the kill (%d retries)\n",
			r.KilledShard, r.RecoveryMS, r.Retries)
	}
}

// runHTAP executes the combined HTAP harness and prints its summary.
func runHTAP(cfg core.HTAPConfig) {
	if cfg.Streams <= 0 {
		cfg.Streams = 2
	}
	res, err := core.RunHTAP(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpchbench:", err)
		os.Exit(1)
	}
	w, a, f := res.Harness.Write, res.Harness.Analytic, res.Harness.Freshness
	fmt.Printf("HTAP: %d write client(s) replaying %d held row(s) against %d analytical stream(s) x %d round(s) (functional data at SF %g)\n",
		cfg.Writers, res.Held, a.Streams, a.Rounds, cfg.LaptopSF)
	fmt.Printf("  writes:    %d ops (%d errors) in %v  =>  %.0f ops/sec, latency %.3f ms/op (±%.3f)\n",
		w.Ops, w.Errors, w.Elapsed, w.OpsPerSec, w.Latency.Mean, w.Latency.StdErr)
	fmt.Printf("  analytics: %d queries in %v  =>  %.2f queries/sec\n", a.Queries, a.Elapsed, a.QPS)
	fmt.Printf("  freshness: lag max %d / mean %.1f records over %d samples; %d background convert(s) covered %d records; %d group-commit flushes\n",
		f.MaxLagRecords, f.MeanLagRecords, f.Samples, f.Converts, f.ConvertedRecords, f.Flushes)
	fmt.Printf("  final:     %d committed, %d converted, lag %d (after quiesce + convert)\n",
		res.Final.CommittedRecords, res.Final.ConvertedRecords, res.Final.LagRecords)
	// Robustness counters print unconditionally: "no faults" is itself
	// the datum an operator reads off a clean run.
	fmt.Printf("  robustness: %d frames replayed (%d B truncated), %d converter retries (%d backoff saturations), %d corrupt chunks, %d parts quarantined, %d duplicate records\n",
		res.Final.FramesReplayed, res.Final.TruncatedBytes,
		res.Final.ConverterRetries, res.Final.BackoffMaxReached,
		res.Final.CorruptChunks, res.Final.PartsQuarantined, res.Final.DuplicateRecords)
	if d := res.Durable; d != nil {
		fmt.Printf("  durability: sync=%s log %d B; reopen replayed %d frames (%d B truncated), re-adopted %d part(s) in %.3f ms\n",
			d.SyncPolicy, d.LogBytes, d.FramesReplayed, d.TruncatedBytes, d.PartsRecovered, d.RecoveryMS)
	}
}

// runStreams executes the concurrent-stream harness and prints its
// summary.
func runStreams(cfg core.TPCHStreamConfig) {
	res, err := core.RunTPCHStreams(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpchbench:", err)
		os.Exit(1)
	}
	fmt.Printf("Concurrent query streams: %d stream(s) x %d round(s), shared pool of %d worker(s), %d admitted per query (functional data at SF %g)\n",
		res.Streams, res.Rounds, res.PoolWorkers, res.Workers, cfg.LaptopSF)
	fmt.Printf("  %d queries in %v  =>  %.2f queries/sec\n", res.Queries, res.Elapsed, res.QPS)
	fmt.Printf("  scan accounting: %d B read, %d B skipped (%.0f%% skipped)\n",
		res.Scanned.BytesRead, res.Scanned.BytesSkipped, 100*res.Scanned.SkippedFrac())
	fmt.Printf("  chunk cache: %d hit / %d miss (%.0f%% hit ratio), %d B served from cache\n",
		res.Scanned.CacheHits, res.Scanned.CacheMisses,
		100*res.Scanned.CacheHitRatio(), res.Scanned.BytesFromCache)
	fmt.Println("  cumulative wall time per query (all streams), with sort-kernel share:")
	for _, id := range res.QueryIDs() {
		share := 0.0
		if res.PerQuery[id] > 0 {
			share = 100 * float64(res.PerQuerySort[id]) / float64(res.PerQuery[id])
		}
		fmt.Printf("    Q%-3d %12v   sort %5.1f%%\n", id, res.PerQuery[id], share)
	}
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad scale factor %q", part)
		}
		out = append(out, f)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || i < 1 || i > 22 {
			return nil, fmt.Errorf("bad query id %q", part)
		}
		out = append(out, i)
	}
	return out, nil
}
