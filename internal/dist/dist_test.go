package dist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"elephants/internal/fault"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

const goldenSF = 0.005

func goldenGen() tpch.GenConfig {
	return tpch.GenConfig{SF: goldenSF, Seed: 1, Random64: true}
}

func readGolden(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile("../tpch/testdata/tpch_golden.txt")
	if err != nil {
		t.Skipf("golden file missing: %v", err)
	}
	return string(want)
}

// goldenBlock cuts one query's answer block out of the golden snapshot.
func goldenBlock(golden string, id int) string {
	marker := fmt.Sprintf("== Q%d rows=", id)
	start := strings.Index(golden, marker)
	if start < 0 {
		return ""
	}
	end := strings.Index(golden[start+len(marker):], "== Q")
	if end < 0 {
		return golden[start:]
	}
	return golden[start : start+len(marker)+end]
}

func diffSnapshot(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("answer drift at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("answer drift: got %d lines, want %d", len(gl), len(wl))
}

// startShards runs n in-memory shard servers of the golden dataset
// inside this process (real TCP, no child processes).
func startShards(t *testing.T, n int) []*Shard {
	t.Helper()
	return startShardsOf(t, goldenGen(), n)
}

// startShardsOf is startShards over the dataset gen generates.
func startShardsOf(t *testing.T, gen tpch.GenConfig, n int) []*Shard {
	t.Helper()
	shards := make([]*Shard, n)
	for i := range shards {
		s, err := StartShard(ShardConfig{
			Shards: n, Index: i,
			SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64,
		})
		if err != nil {
			t.Fatalf("start shard %d/%d: %v", i, n, err)
		}
		t.Cleanup(func() { s.Close() })
		shards[i] = s
	}
	return shards
}

// startLocalShards is startShards' addresses.
func startLocalShards(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for _, s := range startShards(t, n) {
		addrs = append(addrs, s.Addr())
	}
	return addrs
}

func coordAnswers(t *testing.T, c *Coordinator) string {
	t.Helper()
	var b strings.Builder
	for _, q := range tpch.Queries {
		out, err := c.RunQuery(q.ID)
		if err != nil {
			t.Fatalf("Q%d: %v", q.ID, err)
		}
		b.WriteString(tpch.FormatAnswer(q.ID, out))
	}
	return b.String()
}

// TestDistShardPlacement pins the orderkey router: the shard index of
// the first 64 generated orderkeys and of the int64 extremes at 2 and 4
// shards (and at 3, whose modulus reads every bit of the hash), as the
// shard package's int router placed them before dist got its own. A
// change here moves rows between shards, which moves
// dist-scatter's per-shard data and breaks agreement between processes
// built from different commits.
func TestDistShardPlacement(t *testing.T) {
	for _, tc := range []struct {
		shards   int
		first64  string // shardOf(tpch.OrderKey(i)) for i in [0, 64)
		min, max int
	}{
		{2, "0101010101010101010101010101010101010101010101010101010101010101", 1, 1},
		{3, "0020221221121101221021011101102011021100002102221021002002102212", 2, 0},
		{4, "0321032103210321032103210321032103210321032103210321032103210321", 1, 1},
	} {
		var got strings.Builder
		for i := int64(0); i < 64; i++ {
			fmt.Fprint(&got, shardOf(tpch.OrderKey(i), tc.shards))
		}
		if got.String() != tc.first64 {
			t.Errorf("shards=%d: placement %s, want %s", tc.shards, got.String(), tc.first64)
		}
		if got := shardOf(math.MinInt64, tc.shards); got != tc.min {
			t.Errorf("shards=%d: MinInt64 on shard %d, want %d", tc.shards, got, tc.min)
		}
		if got := shardOf(math.MaxInt64, tc.shards); got != tc.max {
			t.Errorf("shards=%d: MaxInt64 on shard %d, want %d", tc.shards, got, tc.max)
		}
	}
}

// TestDistPartitionScanProjects: a scan of a shard's partition returns
// exactly the columns it asks for, under the table's name, sharing the
// partition's vectors. A source that returned the whole table would
// keep every answer but make each cut prefix carry all its columns.
func TestDistPartitionScanProjects(t *testing.T) {
	gen := goldenGen()
	db := BuildShardDB(ShardConfig{Shards: 2, Index: 1, SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64})
	cols := []string{"l_orderkey", tpch.PosCol}
	got, _ := db.Src("lineitem").ScanTable(cols, nil)
	if got.Name != "lineitem" || !slices.Equal(got.Schema.Names(), cols) {
		t.Fatalf("scan of %v returned %s with columns %v", cols, got.Name, got.Schema.Names())
	}
	part := db.Lineitem
	for i, c := range cols {
		if got.Cols[i] != part.Cols[part.Schema.Col(c)] {
			t.Errorf("column %s is a copy, not the partition's vector", c)
		}
	}
	if got.NumRows() != part.NumRows() {
		t.Errorf("scan returned %d rows, the partition holds %d", got.NumRows(), part.NumRows())
	}
}

// TestDistGoldenShards is the tentpole's exactness proof: all 22
// answers byte-identical to the single-process golden snapshot at
// shard counts 1, 2, and 4.
func TestDistGoldenShards(t *testing.T) {
	want := readGolden(t)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			addrs := startLocalShards(t, n)
			c := NewCoordinatorDB(tpch.Generate(goldenGen()), addrs, Options{})
			defer c.Close()
			diffSnapshot(t, coordAnswers(t, c), want)
			if got := c.Stats()[cRequests]; got == 0 {
				t.Fatalf("no scatter requests recorded")
			}
		})
	}
}

// TestDistOnlyCutsReadPartitionedTables holds the rule that lets
// RunQuery keep no other path to the shards: a query without a cut
// scans no partitioned table in its single-process plan, and every cut
// scans one.
func TestDistOnlyCutsReadPartitionedTables(t *testing.T) {
	db := tpch.Generate(goldenGen())
	for _, q := range tpch.Queries {
		_, log := tpch.RunQuery(q.ID, db)
		var partitioned []string
		for _, s := range log.Steps {
			if _, ok := PartitionedTables[s.Table]; ok && s.Kind == relal.StepScan {
				partitioned = append(partitioned, s.Table)
			}
		}
		if _, cut := tpch.Cuts[q.ID]; cut != (len(partitioned) > 0) {
			t.Errorf("Q%d has a cut: %v, and scans %v", q.ID, cut, partitioned)
		}
	}
}

// TestDistAnswersWithRows runs all 22 queries through two shards at a
// scale and seed where Q18 answers rows (it answers none at the golden
// scale, so the golden tests pass whatever its cut does) and requires
// each answer byte-identical to the single-process one.
func TestDistAnswersWithRows(t *testing.T) {
	gen := tpch.GenConfig{SF: 0.01, Seed: 4, Random64: true}
	db := tpch.Generate(gen)
	var addrs []string
	for _, s := range startShardsOf(t, gen, 2) {
		addrs = append(addrs, s.Addr())
	}
	c := NewCoordinatorDB(db, addrs, Options{})
	defer c.Close()
	for _, q := range tpch.Queries {
		got, err := c.RunQuery(q.ID)
		if err != nil {
			t.Fatalf("Q%d: %v", q.ID, err)
		}
		want, _ := tpch.RunQuery(q.ID, db)
		if q.ID == 18 && want.NumRows() == 0 {
			t.Fatalf("Q18 answers no rows at %+v", gen)
		}
		if g, w := tpch.FormatAnswer(q.ID, got), tpch.FormatAnswer(q.ID, want); g != w {
			t.Errorf("Q%d over 2 shards:\n%s\nsingle process:\n%s", q.ID, g, w)
		}
	}
}

// TestDistCutsGoldenOnePerShard runs every cut query — the prefix on
// the shards, the suffix on the coordinator — at shard counts 1, 2 and
// 4, and requires each answer byte-identical to the golden and sent as
// exactly one request per shard.
func TestDistCutsGoldenOnePerShard(t *testing.T) {
	want := readGolden(t)
	for _, n := range []int{1, 2, 4} {
		c := NewCoordinatorDB(tpch.Generate(goldenGen()), startLocalShards(t, n), Options{})
		for id := range tpch.Cuts {
			before := c.Stats()[cRequests]
			out, err := c.RunQuery(id)
			if err != nil {
				t.Fatalf("shards=%d Q%d: %v", n, id, err)
			}
			if sent := c.Stats()[cRequests] - before; sent != int64(n) {
				t.Fatalf("shards=%d Q%d sent %d requests, want one per shard", n, id, sent)
			}
			if got := tpch.FormatAnswer(id, out); got != goldenBlock(want, id) {
				t.Fatalf("shards=%d Q%d drifted:\n%s", n, id, got)
			}
		}
		c.Close()
	}
}

// attemptTimeout widens a test's per-attempt deadline under the race
// detector, whose instrumentation makes a full-scan response look like
// a dead peer at the non-race budget.
func attemptTimeout(d time.Duration) time.Duration {
	if raceEnabled {
		return 10 * d
	}
	return d
}

// TestDistGoldenUnderNetFaults pins all 22 answers while every fault
// the injector knows — drops, resets, torn frames, duplicates, delays —
// hits the wire, and requires the retry layer to have actually worked
// for a living (injected faults and retries both nonzero).
func TestDistGoldenUnderNetFaults(t *testing.T) {
	want := readGolden(t)
	addrs := startLocalShards(t, 2)
	c := NewCoordinatorDB(tpch.Generate(goldenGen()), addrs, Options{
		AttemptTimeout: attemptTimeout(300 * time.Millisecond),
		MaxAttempts:    14,
		BackoffBase:    2 * time.Millisecond,
		BackoffCap:     20 * time.Millisecond,
		Seed:           7,
		Net: fault.NetSchedule{
			Seed:     42,
			DropNth:  11,
			TruncNth: 9,
			DupNth:   6,
			ResetNth: 13,
			DelayNth: 5,
			Delay:    2 * time.Millisecond,
		},
	})
	defer c.Close()
	diffSnapshot(t, coordAnswers(t, c), want)
	stats := c.Stats()
	if stats["net_faults_injected"] == 0 {
		t.Fatalf("fault schedule injected nothing: %v", stats)
	}
	if stats[cRetries] == 0 {
		t.Fatalf("faults injected but no retries recorded: %v", stats)
	}
}

// TestDistDeadShardFailFast kills a shard and requires the fail-fast
// path to return a typed ErrPartial — never rows — then restarts the
// shard and requires the health prober to close the breaker and the
// same query to produce the exact golden answer again.
func TestDistDeadShardFailFast(t *testing.T) {
	want := readGolden(t)
	gen := goldenGen()
	const n = 2
	addrs := make([]string, n)
	shards := make([]*Shard, n)
	for i := 0; i < n; i++ {
		s, err := StartShard(ShardConfig{Shards: n, Index: i, SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		shards[i] = s
		addrs[i] = s.Addr()
	}
	c := NewCoordinatorDB(tpch.Generate(gen), addrs, Options{
		AttemptTimeout: attemptTimeout(200 * time.Millisecond),
		MaxAttempts:    3,
		BackoffBase:    2 * time.Millisecond,
		BackoffCap:     10 * time.Millisecond,
		BreakerAfter:   2,
		FailFast:       true,
		ProbeEvery:     5 * time.Millisecond,
	})
	defer c.Close()

	if got, err := c.RunQuery(6); err != nil {
		t.Fatalf("healthy cluster: %v", err)
	} else if s := tpch.FormatAnswer(6, got); s != goldenBlock(want, 6) {
		t.Fatalf("healthy cluster drifted:\n%s", s)
	}

	port := shards[1].Port()
	shards[1].Close()
	var sawPartial bool
	for i := 0; i < 3; i++ {
		out, err := c.RunQuery(6)
		if err == nil {
			t.Fatalf("query against dead shard returned rows")
		}
		if !errors.Is(err, ErrPartial) {
			t.Fatalf("want ErrPartial, got %v", err)
		}
		var pe *PartialError
		if !errors.As(err, &pe) || pe.Shard != 1 {
			t.Fatalf("want PartialError for shard 1, got %v", err)
		}
		if out != nil {
			t.Fatalf("partial error carried a table")
		}
		sawPartial = true
	}
	if !sawPartial || c.Stats()[cBreakerTrips] == 0 {
		t.Fatalf("breaker never tripped: %v", c.Stats())
	}

	restarted, err := StartShard(ShardConfig{Shards: n, Index: 1, SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64, Port: port})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })

	deadline := time.Now().Add(30 * time.Second)
	for {
		out, err := c.RunQuery(6)
		if err == nil {
			if s := tpch.FormatAnswer(6, out); s != goldenBlock(want, 6) {
				t.Fatalf("post-restart drift:\n%s", s)
			}
			break
		}
		if !errors.Is(err, ErrPartial) {
			t.Fatalf("unexpected error class: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after restart: %v", c.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c.Stats()[cBreakerCloses] == 0 {
		t.Fatalf("breaker close not recorded: %v", c.Stats())
	}
}

// TestDistRetryToSuccess holds a query across a shard outage without
// fail-fast: the retry/backoff loop alone must carry it to the exact
// answer once the shard comes back.
func TestDistRetryToSuccess(t *testing.T) {
	want := readGolden(t)
	gen := goldenGen()
	const n = 2
	addrs := make([]string, n)
	shards := make([]*Shard, n)
	for i := 0; i < n; i++ {
		s, err := StartShard(ShardConfig{Shards: n, Index: i, SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		shards[i] = s
		addrs[i] = s.Addr()
	}
	c := NewCoordinatorDB(tpch.Generate(gen), addrs, Options{
		AttemptTimeout: attemptTimeout(200 * time.Millisecond),
		MaxAttempts:    150,
		BackoffBase:    5 * time.Millisecond,
		BackoffCap:     50 * time.Millisecond,
		ProbeEvery:     -1,
	})
	defer c.Close()

	port := shards[0].Port()
	shards[0].Close()
	restarted := make(chan *Shard, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		s, err := StartShard(ShardConfig{Shards: n, Index: 0, SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64, Port: port})
		if err != nil {
			s = nil
		}
		restarted <- s
	}()
	defer func() {
		if s := <-restarted; s != nil {
			s.Close()
		}
	}()
	out, err := c.RunQuery(12)
	if err != nil {
		t.Fatalf("retry-to-success failed: %v (stats %v)", err, c.Stats())
	}
	if s := tpch.FormatAnswer(12, out); s != goldenBlock(want, 12) {
		t.Fatalf("post-outage drift:\n%s", s)
	}
	if c.Stats()[cRetries] == 0 {
		t.Fatalf("outage survived without retries? %v", c.Stats())
	}
}

// TestDistWireFrames covers the framing layer's rejection paths.
func TestDistWireFrames(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("scatter gather")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	whole := append([]byte(nil), buf.Bytes()...)
	got, err := ReadFrame(bytes.NewReader(whole))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %q %v", got, err)
	}
	for cut := 1; cut < len(whole); cut++ {
		if _, err := ReadFrame(bytes.NewReader(whole[:cut])); err == nil {
			t.Fatalf("torn frame at %d accepted", cut)
		}
	}
	for i := 4; i < len(whole); i++ {
		damaged := append([]byte(nil), whole...)
		damaged[i] ^= 0x40
		if _, err := ReadFrame(bytes.NewReader(damaged)); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversize frame: %v", err)
	}
}

// TestDistHealthRoundTrip: the breaker's probe answers nil against a
// live shard and an error once the shard is gone.
func TestDistHealthRoundTrip(t *testing.T) {
	shards := startShards(t, 1)
	c := NewCoordinatorDB(tpch.Generate(goldenGen()), []string{shards[0].Addr()}, Options{ProbeEvery: -1})
	defer c.Close()
	if err := c.Health(0); err != nil {
		t.Fatal(err)
	}
	shards[0].Close()
	if err := c.Health(0); err == nil {
		t.Fatal("health probe of a closed shard succeeded")
	}
}

// TestDistRunQueryUnknownID: an id outside 1..22 is a plain error, not
// a panic and not a partial answer, and it counts no partial.
func TestDistRunQueryUnknownID(t *testing.T) {
	c := NewCoordinatorDB(tpch.Generate(goldenGen()), startLocalShards(t, 1), Options{ProbeEvery: -1})
	defer c.Close()
	for _, id := range []int{0, 23} {
		out, err := c.RunQuery(id)
		if err == nil || errors.Is(err, ErrPartial) {
			t.Fatalf("Q%d: table=%v err=%v, want a plain error", id, out != nil, err)
		}
	}
	if n := c.Stats()[cPartials]; n != 0 {
		t.Fatalf("unknown ids counted %d partials", n)
	}
}
