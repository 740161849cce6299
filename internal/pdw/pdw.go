// Package pdw models SQL Server Parallel Data Warehouse as the paper
// deployed it: a shared-nothing cluster with hash-distributed or
// replicated tables (Table 1's PDW column), a control node whose
// cost-based optimizer picks join strategies that minimize network
// transfer, and a Data Movement Service (DMS) that shuffles or
// replicates intermediates between compute nodes.
//
// A query executes functionally once (shared tpch/relal program); the
// step log is costed with PDW's strategies: local joins whenever
// partitioning or replication allows, otherwise the cheapest of
// shuffle-left / shuffle-right / replicate-small — exactly the behaviour
// the paper credits for PDW's wins (e.g. Q5's early orders shuffle and
// Q19's replicated part table).
package pdw

import (
	"fmt"

	"elephants/internal/cluster"
	"elephants/internal/relal"
	"elephants/internal/sim"
	"elephants/internal/tpch"
)

// Distribution is one row of Table 1's PDW column.
type Distribution struct {
	// PartitionCol is the hash-distribution column ("" if replicated).
	PartitionCol string
	Replicated   bool
}

// TableDistributions reproduces Table 1 for PDW.
var TableDistributions = map[string]Distribution{
	"customer": {PartitionCol: "c_custkey"},
	"lineitem": {PartitionCol: "l_orderkey"},
	"nation":   {Replicated: true},
	"orders":   {PartitionCol: "o_orderkey"},
	"part":     {PartitionCol: "p_partkey"},
	"partsupp": {PartitionCol: "ps_partkey"},
	"region":   {Replicated: true},
	"supplier": {PartitionCol: "s_suppkey"},
}

// Config tunes the PDW cost model.
type Config struct {
	// ScanMBps is the per-core table-scan processing rate (predicate
	// evaluation over uncompressed rows).
	ScanMBps float64
	// JoinMBps is the per-core join processing rate over input bytes
	// (hash build + probe).
	JoinMBps float64
	// AggMBps is the per-core aggregation rate (expression arithmetic
	// is the expensive part of queries like Q1).
	AggMBps float64
	// WorkersPerNode is the intra-node parallelism. Although PDW lays
	// data out in 8 distributions per node, SQL Server parallelizes
	// each distribution's operators across all 16 (hyper-threaded)
	// cores.
	WorkersPerNode int
	// ProjectionFactor scales row widths to the fraction of columns a
	// typical query actually moves through DMS (PDW projects early;
	// Hive shuffles whole rows).
	ProjectionFactor float64
	// ForceShuffleJoins disables the optimizer's replicate/local
	// choices (ablation: every join shuffles both sides).
	ForceShuffleJoins bool
	// ControlNodeOverhead is the fixed per-query planning cost.
	ControlNodeOverhead sim.Duration
	// PoolBytesPerNode is each compute node's buffer pool (24 GB in
	// the paper). At small scale factors the whole database fits in
	// the aggregate pool and scans skip disk — the paper's explanation
	// for PDW's largest speedups at SF 250.
	PoolBytesPerNode int64
	// SegmentElimination is PDW's counterpart to Hive's
	// PredicatePushdown what-if: column-store scans consume the same
	// skipped-bytes ratio the functional scan pipeline measured (column
	// subsets plus zone-map group pruning) and skip both the disk read
	// and the predicate CPU for eliminated segments. Off by default —
	// the paper's PDW build predates clustered columnstore segment
	// elimination, so base scans read every byte.
	SegmentElimination bool
}

// DefaultConfig returns the paper-calibrated tuning.
func DefaultConfig() Config {
	return Config{
		ScanMBps:            55, // per core; 16 cores ≈ 880 MB/s/node
		JoinMBps:            100,
		AggMBps:             15,
		WorkersPerNode:      16,
		ProjectionFactor:    0.25,
		ControlNodeOverhead: 2 * sim.Second,
		PoolBytesPerNode:    24 << 30,
	}
}

// Strategy names a join's physical plan for reporting.
type Strategy string

// Join strategies.
const (
	LocalJoin      Strategy = "local"
	ShuffleLeft    Strategy = "shuffle-left"
	ShuffleRight   Strategy = "shuffle-right"
	ShuffleBoth    Strategy = "shuffle-both"
	ReplicateSmall Strategy = "replicate-small"
)

// StepReport records one costed plan step.
type StepReport struct {
	Kind     string
	Strategy Strategy
	Bytes    int64
	Elapsed  sim.Duration
}

// QueryStats is the result of one PDW query execution.
type QueryStats struct {
	Query  int
	Total  sim.Duration
	Steps  []StepReport
	Answer *relal.Table
}

// PDW is a deployment at a target scale factor.
type PDW struct {
	s   *sim.Sim
	cl  *cluster.Cluster
	cfg Config
	db  *tpch.DB
	SF  float64
}

// New builds a PDW deployment modeling scale factor sf over db's
// functional data.
func New(s *sim.Sim, cl *cluster.Cluster, db *tpch.DB, sf float64, cfg Config) *PDW {
	if cfg.ScanMBps <= 0 {
		cfg = DefaultConfig()
	}
	return &PDW{s: s, cl: cl, cfg: cfg, db: db, SF: sf}
}

// tableBytes is the stored size of a base table at the target SF.
func (w *PDW) tableBytes(table string) int64 { return tpch.TextBytes(table, w.SF) }

// parallel runs fn once per node concurrently and waits.
func (w *PDW) parallel(p *sim.Proc, name string, fn func(np *sim.Proc, node *cluster.Node)) {
	wg := w.s.NewWaitGroup()
	wg.Add(len(w.cl.Nodes))
	for _, node := range w.cl.Nodes {
		node := node
		w.s.Spawn(name, func(np *sim.Proc) {
			defer wg.Done()
			fn(np, node)
		})
	}
	wg.Wait(p)
}

// cachedFraction returns the fraction of the database resident in the
// aggregate buffer pool (1.0 at SF 250, ~0.02 at SF 16000).
func (w *PDW) cachedFraction() float64 {
	var total int64
	for _, t := range tpch.TableNames {
		total += w.tableBytes(t)
	}
	pool := w.cfg.PoolBytesPerNode * int64(len(w.cl.Nodes))
	if total <= 0 {
		return 1
	}
	f := float64(pool) / float64(total)
	if f > 1 {
		return 1
	}
	return f
}

// scan charges a parallel striped scan of bytes total across the
// cluster with per-core predicate evaluation. Only the uncached
// fraction of the bytes touches disk. skipFrac is the
// segment-elimination fraction: that share of the bytes is never read
// from disk nor pushed through predicate evaluation (zero unless
// Config.SegmentElimination is on).
func (w *PDW) scan(p *sim.Proc, bytes int64, skipFrac float64) {
	if skipFrac > 0 {
		bytes = int64(float64(bytes) * (1 - skipFrac))
	}
	n := int64(len(w.cl.Nodes))
	share := bytes / n
	diskShare := int64(float64(share) * (1 - w.cachedFraction()))
	w.parallel(p, "pdw-scan", func(np *sim.Proc, node *cluster.Node) {
		if diskShare > 0 {
			node.ReadSeqStriped(np, diskShare)
		}
		w.compute(np, node, share, w.cfg.ScanMBps)
	})
}

// compute charges CPU for processing bytes at the per-core rate with
// WorkersPerNode-way parallelism on one node.
func (w *PDW) compute(np *sim.Proc, node *cluster.Node, bytes int64, mbps float64) {
	coreSeconds := float64(bytes) / (mbps * 1e6)
	workers := w.cfg.WorkersPerNode
	if workers < 1 {
		workers = 1
	}
	wg := w.s.NewWaitGroup()
	wg.Add(workers)
	per := sim.Seconds(coreSeconds / float64(workers))
	for i := 0; i < workers; i++ {
		w.s.Spawn("pdw-worker", func(wp *sim.Proc) {
			defer wg.Done()
			node.Compute(wp, per)
		})
	}
	wg.Wait(np)
}

// shuffle charges a DMS repartition of bytes across the cluster: each
// node streams its share out one NIC and in another.
func (w *PDW) shuffle(p *sim.Proc, bytes int64) {
	n := len(w.cl.Nodes)
	share := bytes / int64(n)
	w.parallel(p, "pdw-dms", func(np *sim.Proc, node *cluster.Node) {
		node.Send(np, w.cl.Nodes[(node.ID+1)%n], share)
	})
}

// replicate charges broadcasting bytes to every node.
func (w *PDW) replicate(p *sim.Proc, bytes int64) {
	n := len(w.cl.Nodes)
	// Broadcast: the data streams out of each holding node (n-1)
	// copies in aggregate; model as each node sending (n-1)/n of
	// bytes.
	share := bytes * int64(n-1) / int64(n)
	w.parallel(p, "pdw-replicate", func(np *sim.Proc, node *cluster.Node) {
		node.Send(np, w.cl.Nodes[(node.ID+1)%n], share/int64(n))
	})
}

func colSuffix(col string) string {
	for i := 0; i < len(col); i++ {
		if col[i] == '_' {
			return col[i+1:]
		}
	}
	return col
}

// sideState tracks how one join input is distributed.
type sideState struct {
	partKey    string // hash-distribution column suffix ("" if none)
	replicated bool
}

func baseState(table string) sideState {
	d := TableDistributions[table]
	return sideState{partKey: colSuffix(d.PartitionCol), replicated: d.Replicated}
}

// RunQuery executes TPC-H query id on PDW.
func (w *PDW) RunQuery(p *sim.Proc, id int) QueryStats {
	answer, log := tpch.RunQuery(id, w.db)
	qs := QueryStats{Query: id, Answer: answer}
	start := p.Now()
	ratio := w.SF / w.db.SF
	proj := w.cfg.ProjectionFactor

	scaled := func(rows, width int) int64 {
		return int64(float64(rows) * float64(width) * ratio * proj)
	}

	// With segment elimination on, collect the per-table skipped-bytes
	// fraction the functional scans measured — the same consumption of
	// the step log the Hive model's PredicatePushdown does.
	pruned := map[string]float64{}
	if w.cfg.SegmentElimination {
		pruned = log.SkippedScanFracs()
	}

	p.Sleep(w.cfg.ControlNodeOverhead)

	// Distribution of the running intermediate (chained plans).
	cur := sideState{}

	report := func(kind string, strategy Strategy, bytes int64, t0 sim.Time) {
		qs.Steps = append(qs.Steps, StepReport{
			Kind: kind, Strategy: strategy, Bytes: bytes,
			Elapsed: sim.Duration(p.Now() - t0),
		})
	}

	scannedBase := map[string]bool{}

	for _, step := range log.Widths() {
		switch step.Kind {
		case relal.StepScan:
			continue // charged by the consuming operator
		case relal.StepFilter:
			// Base-table filters charge the scan once; intermediate
			// filters are free (pipelined). The report records the bytes
			// actually pushed through the scan, so with segment
			// elimination it shows the post-pruning size the elapsed
			// time was charged for.
			if step.LeftBase != "" && !scannedBase[step.LeftBase] {
				t0 := p.Now()
				bytes := w.tableBytes(step.LeftBase)
				if f := pruned[step.LeftBase]; f > 0 {
					bytes = int64(float64(bytes) * (1 - f))
				}
				w.scan(p, w.tableBytes(step.LeftBase), pruned[step.LeftBase])
				scannedBase[step.LeftBase] = true
				report("scan:"+step.LeftBase, "", bytes, t0)
			}
		case relal.StepJoin:
			t0 := p.Now()
			leftBytes := scaled(step.LeftRows, step.LeftWidth)
			rightBytes := scaled(step.RightRows, step.RightWidth)
			var left, right sideState
			if step.LeftBase != "" {
				left = baseState(step.LeftBase)
				if !scannedBase[step.LeftBase] {
					w.scan(p, w.tableBytes(step.LeftBase), pruned[step.LeftBase])
					scannedBase[step.LeftBase] = true
				}
			} else {
				left = cur
			}
			if step.RightBase != "" {
				right = baseState(step.RightBase)
				if !scannedBase[step.RightBase] {
					w.scan(p, w.tableBytes(step.RightBase), pruned[step.RightBase])
					scannedBase[step.RightBase] = true
				}
			} else {
				right = cur
			}
			key := colSuffix(step.JoinKey)
			strategy := w.chooseStrategy(left, right, key, leftBytes, rightBytes)
			switch strategy {
			case ShuffleLeft:
				w.shuffle(p, leftBytes)
			case ShuffleRight:
				w.shuffle(p, rightBytes)
			case ShuffleBoth:
				w.shuffle(p, leftBytes+rightBytes)
			case ReplicateSmall:
				small := leftBytes
				if rightBytes < small {
					small = rightBytes
				}
				w.replicate(p, small)
			}
			// Local join on every node over its share.
			share := (leftBytes + rightBytes) / int64(len(w.cl.Nodes))
			w.parallel(p, "pdw-join", func(np *sim.Proc, node *cluster.Node) {
				w.compute(np, node, share, w.cfg.JoinMBps)
			})
			report("join:"+step.Table, strategy, leftBytes+rightBytes, t0)
			// Output partitioning: aligned on the join key unless the
			// join was replicate-based (then it keeps the big side's).
			switch strategy {
			case ReplicateSmall, LocalJoin:
				big := left
				if rightBytes > leftBytes {
					big = right
				}
				if big.partKey != "" {
					cur = sideState{partKey: big.partKey}
				} else {
					cur = sideState{partKey: key}
				}
			default:
				cur = sideState{partKey: key}
			}
		case relal.StepAgg:
			t0 := p.Now()
			in := scaled(step.LeftRows, step.LeftWidth)
			if step.LeftBase != "" && !scannedBase[step.LeftBase] {
				w.scan(p, w.tableBytes(step.LeftBase), pruned[step.LeftBase])
				scannedBase[step.LeftBase] = true
			}
			// Local partial aggregation, then a small global merge on
			// the control node.
			share := in / int64(len(w.cl.Nodes))
			w.parallel(p, "pdw-agg", func(np *sim.Proc, node *cluster.Node) {
				w.compute(np, node, share, w.cfg.AggMBps)
			})
			out := scaled(step.OutRows, step.OutWidth)
			w.shuffle(p, out)
			report("agg", "", in, t0)
			cur = sideState{}
		case relal.StepSort:
			t0 := p.Now()
			out := scaled(step.OutRows, step.OutWidth)
			w.parallel(p, "pdw-sort", func(np *sim.Proc, node *cluster.Node) {
				w.compute(np, node, out/int64(len(w.cl.Nodes)), w.cfg.ScanMBps)
			})
			report("sort", "", out, t0)
		}
	}
	qs.Total = sim.Duration(p.Now() - start)
	return qs
}

// chooseStrategy is the optimizer's network-cost minimisation.
func (w *PDW) chooseStrategy(left, right sideState, key string, leftBytes, rightBytes int64) Strategy {
	if w.cfg.ForceShuffleJoins {
		return ShuffleBoth
	}
	if left.replicated || right.replicated {
		return LocalJoin
	}
	leftAligned := left.partKey == key
	rightAligned := right.partKey == key
	if leftAligned && rightAligned {
		return LocalJoin
	}
	n := int64(len(w.cl.Nodes))
	small := leftBytes
	if rightBytes < small {
		small = rightBytes
	}
	costShuffleLeft := int64(1 << 62)
	if rightAligned {
		costShuffleLeft = leftBytes
	}
	costShuffleRight := int64(1 << 62)
	if leftAligned {
		costShuffleRight = rightBytes
	}
	costShuffleBoth := leftBytes + rightBytes
	costReplicate := small * (n - 1)
	minCost := costShuffleBoth
	strategy := ShuffleBoth
	if costShuffleLeft < minCost {
		minCost, strategy = costShuffleLeft, ShuffleLeft
	}
	if costShuffleRight < minCost {
		minCost, strategy = costShuffleRight, ShuffleRight
	}
	if costReplicate < minCost {
		strategy = ReplicateSmall
	}
	return strategy
}

// LoadTime models dwloader: the landing node splits the generated text
// and streams it to the compute nodes, which write their shares (the
// paper's Table 2 shows PDW loading ~2× slower than Hive).
func (w *PDW) LoadTime(p *sim.Proc) sim.Duration {
	start := p.Now()
	var total int64
	for _, t := range tpch.TableNames {
		total += w.tableBytes(t)
	}
	n := int64(len(w.cl.Nodes))
	// The landing node is the bottleneck: all bytes stream through its
	// NIC, then each compute node parses, converts, and writes its
	// share with index-free bulk insert.
	landing := w.cl.Nodes[0]
	wg := w.s.NewWaitGroup()
	wg.Add(1)
	w.s.Spawn("dwloader-landing", func(lp *sim.Proc) {
		defer wg.Done()
		landing.ReadSeqStriped(lp, total)
		// dwloader splits and re-frames records on the landing node;
		// its effective outbound rate is roughly half wire speed.
		landing.NIC.Use(lp, sim.Seconds(float64(total)/(62.5*1e6)))
	})
	w.parallel(p, "dwloader-compute", func(np *sim.Proc, node *cluster.Node) {
		share := total / n
		// Parse + convert is CPU-heavy in SQL Server's bulk path.
		w.compute(np, node, share, 4)
		node.WriteSeqStriped(np, share)
	})
	wg.Wait(p)
	return sim.Duration(p.Now() - start)
}

// String summarises a QueryStats for debugging.
func (qs QueryStats) String() string {
	return fmt.Sprintf("Q%d: %v (%d steps)", qs.Query, qs.Total, len(qs.Steps))
}
