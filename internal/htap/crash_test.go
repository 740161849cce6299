package htap

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elephants/internal/delta"
	"elephants/internal/fault"
	"elephants/internal/tpch"
)

// durableConfig is the crash tests' store shape: immediate flush
// windows (every fault point is deterministic), small row groups and
// convert batches so the converter really runs during a short write
// burst, and RCF6 parts on the given FS.
func durableConfig(fs fault.FS, pol delta.SyncPolicy) Config {
	return Config{
		Window:       -1,
		RCFile:       true,
		GroupRows:    2048,
		ConvertRows:  64,
		ConvertEvery: 200 * time.Microsecond,
		FS:           fs,
		Sync:         pol,
	}
}

// driveWriters replays held through store with 4 concurrent writers
// sharing a cursor, stopping each writer at its first error (the store
// is dying). skip filters records already recovered. Returns how many
// appends were acknowledged.
func driveWriters(t *testing.T, store *Store, held []delta.Record, skip func(delta.Record) bool, wantErrors bool) int64 {
	t.Helper()
	var cursor, acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := cursor.Add(1) - 1
				if int(i) >= len(held) {
					return
				}
				if skip != nil && skip(held[i]) {
					continue
				}
				if _, err := store.AppendRecord(held[i]); err != nil {
					if !wantErrors {
						t.Errorf("append: %v", err)
					}
					return
				}
				acked.Add(1)
			}
		}()
	}
	wg.Wait()
	return acked.Load()
}

// recoverAndPin reopens the store over fs (no injector — the faulty
// process is dead), re-appends every held record past each table's
// recovered position, quiesces, converts, and pins all 22 answers to
// the golden snapshot. Returns the reopened store's stats from just
// after Open (recovery accounting) for the caller to assert on.
func recoverAndPin(t *testing.T, fs fault.FS, pol delta.SyncPolicy, want string) Stats {
	t.Helper()
	db := goldenDB()
	store, err := Open(db, testHold(), durableConfig(fs, pol))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	openStats := store.StatsNow()
	next := make(map[string]int64)
	for table := range testHold() {
		next[table] = store.NextPos(table)
	}
	driveWriters(t, store, store.HeldRecords(), func(r delta.Record) bool {
		return r.Pos < next[r.Table]
	}, false)
	if err := store.Quiesce(); err != nil {
		t.Fatalf("quiesce after recovery: %v", err)
	}
	if err := store.ConvertAll(); err != nil {
		t.Fatalf("convert after recovery: %v", err)
	}
	diffSnapshot(t, snapshotAnswers(db), want)
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return openStats
}

// TestHtapCrashMatrix is the tentpole's proof: drive concurrent write
// traffic (converter live) against a schedule of injected faults —
// torn log appends, a failing fsync, a full disk, torn part writes,
// and a no-fsync policy — "kill the process" at the injected point,
// crash the file system, reopen, recover, re-append from the recovered
// watermark, and require all 22 answers byte-identical to the golden
// snapshot. Under the syncing policies, nothing acknowledged may be
// lost.
func TestHtapCrashMatrix(t *testing.T) {
	want := readGolden(t)
	cases := []struct {
		name  string
		sched fault.Schedule
		pol   delta.SyncPolicy
		// ackDurable: acked ⇒ durable holds, so every acknowledged
		// append must be among the replayed frames.
		ackDurable bool
	}{
		{name: "append-torn", sched: fault.Schedule{Seed: 3, TornAppendAfter: 4096}, pol: delta.SyncGroup, ackDurable: true},
		{name: "fsync-fail", sched: fault.Schedule{Seed: 5, SyncFailAt: 5}, pol: delta.SyncGroup, ackDurable: true},
		{name: "enospc", sched: fault.Schedule{Seed: 7, DiskCap: 6000}, pol: delta.SyncGroup, ackDurable: true},
		{name: "part-write-torn", sched: fault.Schedule{Seed: 9, TornPartAfter: 512}, pol: delta.SyncGroup, ackDurable: true},
		{name: "sync-none-crash", sched: fault.Schedule{Seed: 11}, pol: delta.SyncNone, ackDurable: false},
		{name: "always-torn", sched: fault.Schedule{Seed: 13, TornAppendAfter: 2048}, pol: delta.SyncAlways, ackDurable: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := goldenDB()
			memfs := fault.NewMemFS()
			inj := fault.NewInjector(memfs, tc.sched)
			store, err := Open(db, testHold(), durableConfig(inj, tc.pol))
			if err != nil {
				t.Fatal(err)
			}
			store.StartConverter()
			acked := driveWriters(t, store, store.HeldRecords(), nil, true)
			store.StopConverter()
			// No Close: the "process" dies here with whatever the
			// schedule let through; the machine crash tears every
			// unsynced tail.
			memfs.Crash(tc.sched.Seed)

			stats := recoverAndPin(t, memfs, tc.pol, want)
			if tc.ackDurable && stats.FramesReplayed < acked {
				t.Errorf("durability hole: %d appends acked, only %d frames replayed (faults: %v)",
					acked, stats.FramesReplayed, inj.Faults())
			}
		})
	}
}

// TestHtapReopenEmptyLog pins the zero-committed-frames edges: a store
// that crashes before any commit recovers to a clean slate, and a log
// holding only garbage bytes is truncated to empty rather than
// replayed.
func TestHtapReopenEmptyLog(t *testing.T) {
	want := readGolden(t)
	t.Run("fresh", func(t *testing.T) {
		memfs := fault.NewMemFS()
		db := goldenDB()
		store, err := Open(db, testHold(), durableConfig(memfs, delta.SyncGroup))
		if err != nil {
			t.Fatal(err)
		}
		_ = store // crash before a single append
		memfs.Crash(1)
		stats := recoverAndPin(t, memfs, delta.SyncGroup, want)
		if stats.FramesReplayed != 0 || stats.TruncatedBytes != 0 {
			t.Errorf("recovered %d frames, %d truncated bytes from an empty log",
				stats.FramesReplayed, stats.TruncatedBytes)
		}
	})
	t.Run("garbage-log", func(t *testing.T) {
		memfs := fault.NewMemFS()
		if err := fault.WriteFile(memfs, "delta.log", []byte("\xff\xfe\xfdnot a frame")); err != nil {
			t.Fatal(err)
		}
		stats := recoverAndPin(t, memfs, delta.SyncGroup, want)
		if stats.FramesReplayed != 0 {
			t.Errorf("replayed %d frames from garbage", stats.FramesReplayed)
		}
		if stats.TruncatedBytes == 0 {
			t.Error("garbage log reports no truncated bytes")
		}
	})
}

// cleanDurableRun builds a fully-written, converted, closed store on
// memfs and returns the golden snapshot it pinned.
func cleanDurableRun(t *testing.T, memfs *fault.MemFS, want string) {
	t.Helper()
	db := goldenDB()
	store, err := Open(db, testHold(), durableConfig(memfs, delta.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	driveWriters(t, store, store.HeldRecords(), nil, false)
	if err := store.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := store.ConvertAll(); err != nil {
		t.Fatal(err)
	}
	diffSnapshot(t, snapshotAnswers(db), want)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHtapRecoverHalfWrittenPart crashes "mid part write": a converted
// part file survives only as a prefix. Recovery must quarantine it (the
// footer cannot parse) and serve its rows from the replayed log — the
// answers stay golden with no re-appends at all.
func TestHtapRecoverHalfWrittenPart(t *testing.T) {
	want := readGolden(t)
	memfs := fault.NewMemFS()
	cleanDurableRun(t, memfs, want)
	name := partName("lineitem", 0, testHold()["lineitem"])
	data, err := memfs.ReadFile(name)
	if err != nil {
		t.Fatalf("expected part file %s: %v", name, err)
	}
	if err := fault.WriteFile(memfs, name, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}

	db := goldenDB()
	store, err := Open(db, testHold(), durableConfig(memfs, delta.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	stats := store.StatsNow()
	if stats.PartsQuarantined < 1 {
		t.Errorf("half-written part not quarantined: %+v", stats)
	}
	if stats.FramesReplayed != int64(len(store.HeldRecords())) {
		t.Errorf("replayed %d frames, want %d", stats.FramesReplayed, len(store.HeldRecords()))
	}
	if err := store.Quiesce(); err != nil {
		t.Fatal(err)
	}
	diffSnapshot(t, snapshotAnswers(db), want)
	store.Close()
}

// TestHtapCorruptPartQuarantine flips one bit inside a persisted RCF6
// part's chunk region: reopen adopts the part (the footer is intact),
// the first scan that touches the chunk gets ErrCorrupt from the CRC,
// the part is quarantined mid-scan, and the same scan's retry serves
// the rows from the replayed log — golden answers, never a wrong one.
// A re-conversion then restores the columnar part.
func TestHtapCorruptPartQuarantine(t *testing.T) {
	want := readGolden(t)
	memfs := fault.NewMemFS()
	cleanDurableRun(t, memfs, want)
	name := partName("lineitem", 0, testHold()["lineitem"])
	data, err := memfs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[20] ^= 0x10 // inside the first chunk, far from the footer
	if err := fault.WriteFile(memfs, name, bad); err != nil {
		t.Fatal(err)
	}

	db := goldenDB()
	store, err := Open(db, testHold(), durableConfig(memfs, delta.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	if got := store.StatsNow().PartsRecovered; got < 2 {
		t.Fatalf("recovered %d parts, want both (footer still parses)", got)
	}
	// Force a full scan of every chunk through the htap source: the
	// corruption must surface, quarantine, and degrade — not panic, not
	// return wrong rows.
	st := store.tables["lineitem"]
	hs := &htapSource{store: store, st: st, base: st.base}
	tbl, scanStats := hs.ScanTable(nil, nil)
	if tbl.NumRows() != st.base.NumRows() {
		t.Fatalf("degraded scan rows = %d, want %d", tbl.NumRows(), st.base.NumRows())
	}
	if scanStats.CorruptChunks < 1 {
		t.Error("scan stats did not count the corrupt chunk")
	}
	stats := store.StatsNow()
	if stats.CorruptChunks < 1 || stats.PartsQuarantined < 1 {
		t.Errorf("corruption not quarantined: %+v", stats)
	}
	diffSnapshot(t, snapshotAnswers(db), want)

	// The converter re-encodes the dropped range; answers hold.
	if err := store.ConvertAll(); err != nil {
		t.Fatal(err)
	}
	if lag := store.StatsNow().LagRecords; lag != 0 {
		t.Errorf("lag = %d after re-conversion", lag)
	}
	diffSnapshot(t, snapshotAnswers(db), want)
	store.Close()
}

// TestHtapCorruptFooterQuarantine flips one bit in a persisted part's
// footer — a zone map bound, which no chunk CRC covers: the trailer CRC
// makes the part fail to parse, so reopen quarantines it instead of
// adopting a footer that would prune the wrong row groups, the replayed
// log serves its rows, and the answers are golden before and after the
// converter rebuilds the part.
func TestHtapCorruptFooterQuarantine(t *testing.T) {
	want := readGolden(t)
	memfs := fault.NewMemFS()
	cleanDurableRun(t, memfs, want)
	name := partName("lineitem", 0, testHold()["lineitem"])
	data, err := memfs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)-20] ^= 0x04 // in the last group's zone maps, ahead of the 8-byte trailer
	if err := fault.WriteFile(memfs, name, bad); err != nil {
		t.Fatal(err)
	}

	db := goldenDB()
	store, err := Open(db, testHold(), durableConfig(memfs, delta.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	if stats := store.StatsNow(); stats.PartsQuarantined < 1 {
		t.Errorf("part with a damaged footer not quarantined: %+v", stats)
	}
	if err := store.Quiesce(); err != nil {
		t.Fatal(err)
	}
	diffSnapshot(t, snapshotAnswers(db), want)
	if err := store.ConvertAll(); err != nil {
		t.Fatal(err)
	}
	if lag := store.StatsNow().LagRecords; lag != 0 {
		t.Errorf("lag = %d after re-conversion", lag)
	}
	diffSnapshot(t, snapshotAnswers(db), want)
	store.Close()
}

// TestHtapConverterRetriesTransientFaults pins the backoff path: the
// first part writes fail with a transient error, the converter retries
// with exponential backoff, and conversion eventually lands with the
// retries counted.
func TestHtapConverterRetriesTransientFaults(t *testing.T) {
	want := readGolden(t)
	db := goldenDB()
	memfs := fault.NewMemFS()
	inj := fault.NewInjector(memfs, fault.Schedule{Seed: 1, TransientPartFails: 2})
	store, err := Open(db, testHold(), durableConfig(inj, delta.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	driveWriters(t, store, store.HeldRecords(), nil, false)
	if err := store.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := store.ConvertAll(); err != nil {
		t.Fatalf("ConvertAll should absorb transient faults: %v", err)
	}
	stats := store.StatsNow()
	if stats.ConverterRetries < 2 {
		t.Errorf("retries = %d, want >= 2", stats.ConverterRetries)
	}
	if stats.LagRecords != 0 {
		t.Errorf("lag = %d after ConvertAll", stats.LagRecords)
	}
	diffSnapshot(t, snapshotAnswers(db), want)
	store.Close()
}

// BenchmarkRecovery measures Open's replay-into-views cost against log
// size, reporting the durable log's byte size alongside ns/op — the
// recovery-time-vs-log-size curve.
func BenchmarkRecovery(b *testing.B) {
	for _, frames := range []int{1024, 4096, 16384} {
		b.Run("frames="+strconv.Itoa(frames), func(b *testing.B) {
			db := tpch.Generate(tpch.GenConfig{SF: 0.01, Seed: 1, Random64: true})
			hold := map[string]int{"lineitem": frames}
			memfs := fault.NewMemFS()
			cfg := Config{Window: -1, FS: memfs, Sync: delta.SyncNone, ConvertRows: 1 << 30}
			store, err := Open(db, hold, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range store.HeldRecords() {
				if _, err := store.AppendRecord(r); err != nil {
					b.Fatal(err)
				}
			}
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			logBytes := len(store.Log().Data())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s2, err := Open(db, hold, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if got := s2.StatsNow().FramesReplayed; got != int64(frames) {
					b.Fatalf("replayed %d frames, want %d", got, frames)
				}
			}
			// After ResetTimer: it clears custom metrics too.
			b.ReportMetric(float64(logBytes), "log_bytes")
		})
	}
}
