package htap

import (
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"elephants/internal/delta"
	"elephants/internal/fault"
	"elephants/internal/tpch"
)

// durableConfig is the crash tests' store shape: immediate flush
// windows (every fault point is deterministic), small convert batches
// so commits close converted ranges during a short write burst, and the
// delta log on the given FS.
func durableConfig(fs fault.FS, pol delta.SyncPolicy) Config {
	return Config{Window: -1, ConvertRows: 64, FS: fs, Sync: pol}
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

// TestHtapCrashMatrix drives concurrent write traffic (commits closing
// converted ranges) against a schedule of injected faults — torn log
// appends, a failing fsync, a full disk, and a no-fsync policy — "kills
// the process" at the injected point, crashes the file system, reopens,
// recovers, re-appends from the recovered watermark, and requires all
// 22 answers byte-identical to the golden snapshot. Under the syncing
// policies, nothing acknowledged may be lost. Every schedule that arms
// a fault must fire it: the log is the only file, so all of its budget
// lands on log traffic.
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
			acked := driveWriters(t, store, store.HeldRecords(), nil, true)
			armed := tc.sched != fault.Schedule{Seed: tc.sched.Seed}
			if armed && len(inj.Faults()) == 0 {
				t.Errorf("schedule %+v injected no fault", tc.sched)
			}
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
		f, err := memfs.Open("delta.log")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append([]byte("\xff\xfe\xfdnot a frame")); err != nil {
			t.Fatal(err)
		}
		f.Close()
		stats := recoverAndPin(t, memfs, delta.SyncGroup, want)
		if stats.FramesReplayed != 0 {
			t.Errorf("replayed %d frames from garbage", stats.FramesReplayed)
		}
		if stats.TruncatedBytes == 0 {
			t.Error("garbage log reports no truncated bytes")
		}
	})
}

// TestHtapRecoverFromTheLogAlone pins the durable store's one-file
// contract: after writes, Quiesce, ConvertAll and Close — with RCFile
// set, which selects nothing — the FS holds exactly delta.log, and a
// reopen replays every held record from it and answers golden with no
// re-append.
func TestHtapRecoverFromTheLogAlone(t *testing.T) {
	want := readGolden(t)
	memfs := fault.NewMemFS()
	cfg := durableConfig(memfs, delta.SyncGroup)
	cfg.RCFile = true
	db := goldenDB()
	store, err := Open(db, testHold(), cfg)
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
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := memfs.List(); !reflect.DeepEqual(names, []string{"delta.log"}) {
		t.Fatalf("store files = %v, want only delta.log", names)
	}

	db = goldenDB()
	store, err = Open(db, testHold(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := store.StatsNow().FramesReplayed, int64(len(store.HeldRecords())); got != want {
		t.Errorf("replayed %d frames, want %d", got, want)
	}
	for table, n := range testHold() {
		if got := store.NextPos(table); got != int64(n) {
			t.Errorf("%s recovered to position %d, want %d", table, got, n)
		}
	}
	if err := store.Quiesce(); err != nil {
		t.Fatal(err)
	}
	diffSnapshot(t, snapshotAnswers(db), want)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHtapLagIgnoresDuplicates re-appends every held record after a
// reopen that already replayed them all. Each re-append commits and is
// dropped as a duplicate, so once every position is converted the lag
// must read 0, not the number of duplicates.
func TestHtapLagIgnoresDuplicates(t *testing.T) {
	memfs := fault.NewMemFS()
	cfg := durableConfig(memfs, delta.SyncGroup)
	store, err := Open(goldenDB(), testHold(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	held := store.HeldRecords()
	driveWriters(t, store, held, nil, false)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store, err = Open(goldenDB(), testHold(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveWriters(t, store, held, nil, false)
	if err := store.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := store.ConvertAll(); err != nil {
		t.Fatal(err)
	}
	st := store.StatsNow()
	if st.DuplicateRecords != int64(len(held)) {
		t.Errorf("duplicates = %d, want %d", st.DuplicateRecords, len(held))
	}
	if st.LagRecords != 0 {
		t.Errorf("lag = %d after re-appending %d duplicates and converting, want 0", st.LagRecords, len(held))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
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
