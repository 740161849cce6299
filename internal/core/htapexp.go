// The combined HTAP experiment: live YCSB-shaped write traffic feeds
// the delta log while TPC-H streams replay over the same store — the
// update-shipping pipeline measured on all three axes at once (write
// ops/sec, analytical QPS, freshness lag).
package core

import (
	"fmt"
	"time"

	"elephants/internal/delta"
	"elephants/internal/fault"
	"elephants/internal/htap"
	"elephants/internal/rcfile"
	"elephants/internal/tpch"
)

// HTAPConfig scopes one combined write + analytics run.
type HTAPConfig struct {
	// LaptopSF is the functional dataset scale (defaults 0.01).
	LaptopSF float64
	Seed     int64
	// HoldFrac is the fraction of orders and lineitem rows held back
	// from the base parts and replayed as live writes (0 = 0.02).
	HoldFrac float64
	// Writers is the number of closed-loop write clients (0 = 4).
	Writers int
	// TargetOps throttles aggregate write throughput (0 = unthrottled).
	TargetOps float64
	// Streams/Rounds/Workers/Queries parameterize the analytical side.
	Streams, Rounds, Workers int
	Queries                  []int
	// RCFile encodes base and converted parts as RCF6 files; GroupRows
	// and CacheMB mirror TPCHStreamConfig.
	RCFile    bool
	GroupRows int
	CacheMB   int
	// Window is the delta log's group-commit window (0 = delta default).
	Window time.Duration
	// ConvertRows / ConvertEvery parameterize the background converter.
	ConvertRows  int
	ConvertEvery time.Duration
	// DurablePath, when set, backs the store with an on-disk delta log
	// (and, with RCFile, persisted RCF6 parts) in that directory; after
	// the run the store is closed and reopened to measure recovery.
	// With FaultSeed but no path, an in-memory crash FS is used instead.
	DurablePath string
	// SyncPolicy is the durable log's fsync policy: "group" (default),
	// "always", or "none".
	SyncPolicy string
	// FaultSeed, when non-zero, wraps the FS in a fault injector that
	// fails the first couple of part writes with transient errors, so a
	// bench run exercises the converter's retry/backoff path.
	FaultSeed int64
}

// HTAPResult is one run's report plus the store's final accounting.
type HTAPResult struct {
	Config  HTAPConfig
	Harness htap.HarnessResult
	// Held is the number of rows replayed through the write path.
	Held int
	// Final is the store's state after quiesce + full conversion.
	Final htap.Stats
	// Durable reports the close → reopen → replay cycle (nil for the
	// in-memory store).
	Durable *DurableResult
}

// DurableResult measures recovery of the durable store: the run's store
// is closed, reopened over the same bytes, and the replay accounted.
type DurableResult struct {
	SyncPolicy     string
	LogBytes       int64
	RecoveryMS     float64
	FramesReplayed int64
	TruncatedBytes int64
	PartsRecovered int64
}

// RunHTAP generates the dataset, holds back the tail of orders and
// lineitem, and drives the combined harness with the background
// converter running. Afterwards it quiesces and converts the remaining
// tail, so Final reports zero lag and the store is fully columnar.
func RunHTAP(cfg HTAPConfig) (HTAPResult, error) {
	if cfg.LaptopSF <= 0 {
		cfg.LaptopSF = 0.01
	}
	if cfg.HoldFrac <= 0 {
		cfg.HoldFrac = 0.02
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 4
	}
	db := tpch.Generate(tpch.GenConfig{SF: cfg.LaptopSF, Seed: cfg.Seed, Random64: true})

	var cache *rcfile.ChunkCache
	if cfg.RCFile {
		cacheMB := cfg.CacheMB
		if cacheMB <= 0 {
			cacheMB = 64
		}
		cache = rcfile.NewChunkCache(int64(cacheMB) << 20)
	}
	groupRows := cfg.GroupRows
	if groupRows <= 0 {
		groupRows = 4096
	}

	hold := make(map[string]int, 2)
	for _, name := range []string{"orders", "lineitem"} {
		n := db.Table(name).NumRows()
		k := int(float64(n) * cfg.HoldFrac)
		if k < 1 {
			k = 1
		}
		hold[name] = k
	}

	pol, err := delta.ParseSyncPolicy(cfg.SyncPolicy)
	if err != nil {
		return HTAPResult{}, err
	}
	// baseFS is what recovery reopens (the injector, like the crashed
	// process, is gone); storeFS is what the live run writes through.
	var baseFS, storeFS fault.FS
	if cfg.DurablePath != "" {
		dfs, err := fault.NewDirFS(cfg.DurablePath)
		if err != nil {
			return HTAPResult{}, fmt.Errorf("durable dir: %w", err)
		}
		baseFS = dfs
	} else if cfg.FaultSeed != 0 {
		baseFS = fault.NewMemFS()
	}
	storeFS = baseFS
	if baseFS != nil && cfg.FaultSeed != 0 {
		storeFS = fault.NewInjector(baseFS, fault.Schedule{Seed: cfg.FaultSeed, TransientPartFails: 2})
	}

	storeCfg := htap.Config{
		Window:       cfg.Window,
		RCFile:       cfg.RCFile,
		GroupRows:    groupRows,
		Cache:        cache,
		ConvertRows:  cfg.ConvertRows,
		ConvertEvery: cfg.ConvertEvery,
		FS:           storeFS,
		Sync:         pol,
	}
	store, err := htap.New(db, hold, storeCfg)
	if err != nil {
		return HTAPResult{}, err
	}
	if cfg.RCFile {
		// Non-held tables scan through RCFile too, as RunTPCHStreams does.
		for _, name := range tpch.TableNames {
			if _, held := hold[name]; held {
				continue
			}
			src, err := rcfile.NewSource(db.Table(name), groupRows)
			if err != nil {
				return HTAPResult{}, fmt.Errorf("encode %s: %w", name, err)
			}
			src.SetCache(cache)
			db.SetSource(name, src)
		}
	}

	store.StartConverter()
	res, err := htap.Run(store, db, htap.HarnessConfig{
		Writers:   cfg.Writers,
		TargetOps: cfg.TargetOps,
		Streams:   cfg.Streams,
		Rounds:    cfg.Rounds,
		Workers:   cfg.Workers,
		Queries:   cfg.Queries,
	})
	store.StopConverter()
	if err != nil {
		return HTAPResult{}, err
	}
	if err := store.Quiesce(); err != nil {
		return HTAPResult{}, err
	}
	if err := store.ConvertAll(); err != nil {
		return HTAPResult{}, err
	}
	result := HTAPResult{
		Config:  cfg,
		Harness: res,
		Held:    len(store.HeldRecords()),
		Final:   store.StatsNow(),
	}

	if baseFS != nil {
		// Close the store (final fsync), then reopen over the bare FS —
		// the injector died with the "process" — and time the replay.
		logBytes := int64(len(store.Log().Data()))
		if err := store.Close(); err != nil {
			return HTAPResult{}, fmt.Errorf("close durable store: %w", err)
		}
		storeCfg.FS = baseFS
		t0 := time.Now()
		reopened, err := htap.Open(db, hold, storeCfg)
		if err != nil {
			return HTAPResult{}, fmt.Errorf("reopen durable store: %w", err)
		}
		elapsed := time.Since(t0)
		st := reopened.StatsNow()
		result.Durable = &DurableResult{
			SyncPolicy:     pol.String(),
			LogBytes:       logBytes,
			RecoveryMS:     float64(elapsed.Microseconds()) / 1000,
			FramesReplayed: st.FramesReplayed,
			TruncatedBytes: st.TruncatedBytes,
			PartsRecovered: st.PartsRecovered,
		}
		if err := reopened.Close(); err != nil {
			return HTAPResult{}, fmt.Errorf("close reopened store: %w", err)
		}
	}
	return result, nil
}
