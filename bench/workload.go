package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"elephants/internal/delta"
	"elephants/internal/dist"
	"elephants/internal/docstore"
	"elephants/internal/fault"
	"elephants/internal/htap"
	"elephants/internal/rcfile"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// Workload names, as BENCHMARK.json lists them.
const (
	memStream   = "mem-stream"
	rcfileCold  = "rcfile-cold"
	htapMixed   = "htap-mixed"
	distScatter = "dist-scatter"
)

// Sizes that define the workloads. README.md gives the measurements
// behind them.
const (
	groupRows = 4096
	// coldCacheBytesAtSF001 holds about a fifth of the decoded working
	// set of the eight tables at SF 0.01, so the LRU evicts all the time.
	coldCacheBytesAtSF001 = 1536 << 10
	// fitCacheBytes holds every chunk htap-mixed ever decodes.
	fitCacheBytes = 64 << 20
	convertRows   = 512
	// writeRate is the open-loop write rate in ops/s. One writer is
	// about half busy at this rate, so it keeps to its schedule and the
	// latency it reports is the store's.
	writeRate = 200.0
	// holdMargin is held rows per row the paced writer can send: the
	// rest is appended after the clock so the final state is the whole
	// dataset.
	holdMargin = 16.0 / 15.0
	distShards = 2
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sf       float64
	check    bool
	// root is the checkout's root directory; outDir takes traces and
	// the stores' scratch directories.
	root, outDir string
}

func (c config) gen() tpch.GenConfig {
	return tpch.GenConfig{SF: c.sf, Seed: c.seed, Random64: true}
}

// writeOp is one pre-marshalled document write.
type writeOp struct {
	table string
	pos   int64
	bson  []byte
}

// env is the engine state one set-up builds for a workload.
type env struct {
	db      *tpch.DB
	streams int
	// layer names, per table, the module that serves its scans.
	layer map[string]string

	cache    *rcfile.ChunkCache
	encodeS  float64 // time the benchmark spent encoding tables as RCFiles
	rcfBytes int64   // their encoded size
	rcfText  int64   // their size as dbgen text

	// htap-mixed
	store    *htap.Store
	storeCfg htap.Config
	hold     map[string]int
	fsc      *fsCounters
	ops      []writeOp

	// dist-scatter
	coord  *dist.Coordinator
	shards []*dist.Shard
	bootS  float64

	dir string // scratch directory, removed on close
}

// query runs TPC-H query id the way the workload's clients do.
func (e *env) query(db *tpch.DB, id int) (*relal.Table, relal.StepLog, error) {
	if e.coord != nil {
		t, err := e.coord.RunQuery(id)
		return t, relal.StepLog{}, err
	}
	t, log := tpch.RunQueryWorkers(id, db, 0)
	return t, log, nil
}

// close releases everything the set-up started. The store may already
// have been closed by the recovery step.
func (e *env) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if e.store != nil {
		e.store.StopConverter()
		keep(e.store.Close())
	}
	if e.coord != nil {
		e.coord.Close()
	}
	for _, s := range e.shards {
		keep(s.Close())
	}
	if e.dir != "" {
		keep(os.RemoveAll(e.dir))
	}
	return first
}

// buildEnv turns a freshly generated database into the workload's
// serving state. tr may be nil.
func buildEnv(cfg config, db *tpch.DB, tr *tracer) (*env, error) {
	e := &env{db: db, streams: 1, layer: make(map[string]string)}
	for _, name := range tpch.TableNames {
		e.layer[name] = "relal"
	}
	var err error
	switch cfg.workload {
	case memStream:
	case rcfileCold:
		e.streams = 2
		e.cache = rcfile.NewChunkCache(int64(math.Ceil(coldCacheBytesAtSF001 * cfg.sf / 0.01)))
		err = e.encodeTables(cfg, tpch.TableNames)
	case htapMixed:
		err = e.buildHTAP(cfg, tr)
	case distScatter:
		err = e.buildDist(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		// Best effort: the build error is the one to report.
		_ = e.close()
		return nil, err
	}
	return e, nil
}

// encodeTables puts the named tables behind RCFile sources that share
// the environment's chunk cache.
func (e *env) encodeTables(cfg config, names []string) error {
	t0 := time.Now()
	for _, name := range names {
		src, err := rcfile.NewSource(e.db.Table(name), groupRows)
		if err != nil {
			return fmt.Errorf("encode %s: %w", name, err)
		}
		src.SetCache(e.cache)
		e.db.SetSource(name, src)
		e.layer[name] = "rcfile"
		e.rcfBytes += int64(src.Bytes())
		e.rcfText += tpch.TextBytes(name, cfg.sf)
	}
	e.encodeS = time.Since(t0).Seconds()
	return nil
}

// heldRows splits the rows the writer will append between orders and
// lineitem in proportion to their sizes.
func heldRows(cfg config, db *tpch.DB) map[string]int {
	total := int(math.Ceil(writeRate * cfg.seconds * holdMargin))
	no, nl := db.Orders.NumRows(), db.Lineitem.NumRows()
	orders := max(1, total*no/(no+nl))
	return map[string]int{"orders": min(orders, no/2), "lineitem": min(max(1, total-orders), nl/2)}
}

func (e *env) buildHTAP(cfg config, tr *tracer) error {
	dir, err := os.MkdirTemp(cfg.outDir, "htap-")
	if err != nil {
		return err
	}
	e.dir = dir
	dfs, err := fault.NewDirFS(dir)
	if err != nil {
		return err
	}
	e.fsc = &fsCounters{tr: tr}
	e.cache = rcfile.NewChunkCache(fitCacheBytes)
	e.hold = heldRows(cfg, e.db)
	e.storeCfg = htap.Config{
		RCFile:      true,
		GroupRows:   groupRows,
		Cache:       e.cache,
		ConvertRows: convertRows,
		FS:          countFS{FS: dfs, c: e.fsc},
		Sync:        delta.SyncGroup,
	}
	e.store, err = htap.New(e.db, e.hold, e.storeCfg)
	if err != nil {
		return err
	}
	var rest []string
	for _, name := range tpch.TableNames {
		if _, held := e.hold[name]; held {
			e.layer[name] = "htap"
		} else {
			rest = append(rest, name)
		}
	}
	if err := e.encodeTables(cfg, rest); err != nil {
		return err
	}
	// Marshal the writes up front, so the timed loop measures the write
	// path and not document construction.
	for _, r := range e.store.HeldRecords() {
		doc, err := e.store.DocOf(r)
		if err != nil {
			return err
		}
		e.ops = append(e.ops, writeOp{table: r.Table, pos: r.Pos, bson: docstore.Marshal(doc)})
	}
	e.store.StartConverter()
	return nil
}

func (e *env) buildDist(cfg config) error {
	dir, err := os.MkdirTemp(cfg.outDir, "dist-")
	if err != nil {
		return err
	}
	e.dir = dir
	t0 := time.Now()
	var addrs []string
	for i := 0; i < distShards; i++ {
		gen := cfg.gen()
		s, err := dist.StartShard(dist.ShardConfig{
			Shards: distShards, Index: i,
			SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64,
			DataDir: filepath.Join(dir, fmt.Sprintf("shard-%d", i)),
		})
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		e.shards = append(e.shards, s)
		addrs = append(addrs, s.Addr())
	}
	e.bootS = time.Since(t0).Seconds()
	// The coordinator reuses the database this set-up generated; it is
	// what NewCoordinator would generate from the same parameters.
	e.coord = dist.NewCoordinatorDB(e.db, addrs, dist.Options{Seed: cfg.seed})
	for name := range dist.PartitionedTables {
		e.layer[name] = "dist"
	}
	return nil
}

// traceDB returns the database a traced stream queries: every source is
// wrapped so that its scans become spans under st's current query. The
// coordinator runs queries on its own database, so there the wrappers go
// in place; elsewhere each stream gets its own view of the shared
// tables, which keeps concurrent streams' spans apart.
func (e *env) traceDB(st *streamTrace) *tpch.DB {
	view := e.db
	if e.coord == nil {
		view = tablesOf(e.db)
	}
	for _, name := range tpch.TableNames {
		view.SetSource(name, &timedSource{Source: e.db.Src(name), layer: e.layer[name], st: st})
	}
	return view
}

// tablesOf returns a database over d's tables with no sources installed
// yet, so that a caller can give it sources, or tables, of its own.
func tablesOf(d *tpch.DB) *tpch.DB {
	return &tpch.DB{
		SF: d.SF, Region: d.Region, Nation: d.Nation, Supplier: d.Supplier, Customer: d.Customer,
		Part: d.Part, PartSupp: d.PartSupp, Orders: d.Orders, Lineitem: d.Lineitem,
	}
}
