package relal

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// shrinkJoinMorsels drops the join morsel size so the partitioned build,
// the multi-morsel probe merge, and the parallel gathers all engage on
// test-sized tables; restored on cleanup.
func shrinkJoinMorsels(t testing.TB, rows int) {
	t.Helper()
	old := joinMorselRows
	joinMorselRows = rows
	t.Cleanup(func() { joinMorselRows = old })
}

// diffWorkers is the worker-count matrix the differential suite runs:
// serial reference, smallest parallel pool, an odd pool that does not
// divide the partition count, and whatever this host has.
func diffWorkers() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// joinCase builds one randomized build/probe table pair. Key values are
// drawn from [0, card) so low cardinalities force duplicate keys on both
// sides; sentinel=true plants NULL-ish values (MinInt64, NaN, "") in
// both key columns.
type joinCase struct {
	name         string
	lRows, rRows int
	card         int64
	kind         Type
	sentinel     bool
	disjoint     bool // probe keys shifted outside the build range (no-match)
	allMatch     bool // card 1: every probe row matches every build row's key
	leftView     bool // probe through a filtered view
	rightView    bool // build through a filtered view
}

func (c joinCase) tables(seed int64) (left, right *Table) {
	rng := rand.New(rand.NewSource(seed))
	genKeys := func(n int, shift int64) *Vector {
		card := c.card
		if c.allMatch {
			card = 1
		}
		switch c.kind {
		case Int:
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = rng.Int63n(card) + shift
				if c.sentinel && rng.Intn(16) == 0 {
					xs[i] = math.MinInt64
				}
			}
			return IntsV(xs)
		case Float:
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Int63n(card)+shift) / 2
				if c.sentinel && rng.Intn(16) == 0 {
					xs[i] = math.NaN()
				}
			}
			return FloatsV(xs)
		default:
			xs := make([]string, n)
			for i := range xs {
				xs[i] = fmt.Sprintf("k%06d", rng.Int63n(card)+shift)
				if c.sentinel && rng.Intn(16) == 0 {
					xs[i] = ""
				}
			}
			return StrsV(xs)
		}
	}
	payload := func(n int) *Vector {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*1e6 - 5e5
		}
		return FloatsV(xs)
	}
	shift := int64(0)
	if c.disjoint {
		shift = c.card + 1000
	}
	left = NewTable("l", Schema{{Name: "lk", Type: c.kind}, {Name: "lv", Type: Float}},
		genKeys(c.lRows, shift), payload(c.lRows))
	right = NewTable("r", Schema{{Name: "rk", Type: c.kind}, {Name: "rv", Type: Float}},
		genKeys(c.rRows, 0), payload(c.rRows))
	return left, right
}

// viewOf returns t filtered to roughly half its rows (serially), so the
// kernels also run over selection vectors.
func viewOf(t *Table, col string) *Table {
	v := t.FloatCol(col)
	return (&Exec{Parallelism: 1}).Filter(t, func(i int) bool { return v.Get(i) > 0 })
}

// TestJoinParallelDifferential locks the morsel-parallel Join, SemiJoin,
// and AntiJoin to the retained serial kernels: for randomized build and
// probe tables — duplicate keys, empty sides, all-match, no-match,
// NULL-ish sentinel values, and view inputs — the output must be
// byte-identical at every worker count.
func TestJoinParallelDifferential(t *testing.T) {
	shrinkJoinMorsels(t, 16)
	cases := []joinCase{
		{name: "int-dups", lRows: 500, rRows: 300, card: 40, kind: Int},
		{name: "int-high-card", lRows: 400, rRows: 400, card: 1 << 40, kind: Int},
		{name: "int-sentinels", lRows: 300, rRows: 200, card: 25, kind: Int, sentinel: true},
		{name: "int-no-match", lRows: 250, rRows: 250, card: 50, kind: Int, disjoint: true},
		{name: "int-all-match", lRows: 120, rRows: 90, card: 1, kind: Int, allMatch: true},
		{name: "int-empty-build", lRows: 200, rRows: 0, card: 10, kind: Int},
		{name: "int-empty-probe", lRows: 0, rRows: 200, card: 10, kind: Int},
		{name: "int-both-empty", lRows: 0, rRows: 0, card: 10, kind: Int},
		{name: "float-dups", lRows: 350, rRows: 280, card: 30, kind: Float},
		{name: "float-nan", lRows: 300, rRows: 300, card: 20, kind: Float, sentinel: true},
		{name: "str-dups", lRows: 320, rRows: 260, card: 35, kind: Str},
		{name: "str-sentinels", lRows: 280, rRows: 240, card: 30, kind: Str, sentinel: true},
		{name: "int-views", lRows: 500, rRows: 400, card: 45, kind: Int, leftView: true, rightView: true},
		{name: "str-left-view", lRows: 450, rRows: 150, card: 25, kind: Str, leftView: true},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			left, right := c.tables(int64(1000 + ci))
			if c.leftView {
				left = viewOf(left, "lv")
			}
			if c.rightView {
				right = viewOf(right, "rv")
			}
			serial := &Exec{Parallelism: 1}
			wantJoin := render(serial.Join(left, right, "lk", "rk"))
			wantSemi := render(serial.SemiJoin(left, right, "lk", "rk"))
			wantAnti := render(serial.AntiJoin(left, right, "lk", "rk"))
			for _, workers := range diffWorkers() {
				e := &Exec{Parallelism: workers}
				if got := render(e.Join(left, right, "lk", "rk")); got != wantJoin {
					t.Fatalf("workers=%d Join drifts from serial reference", workers)
				}
				if got := render(e.SemiJoin(left, right, "lk", "rk")); got != wantSemi {
					t.Fatalf("workers=%d SemiJoin drifts from serial reference", workers)
				}
				if got := render(e.AntiJoin(left, right, "lk", "rk")); got != wantAnti {
					t.Fatalf("workers=%d AntiJoin drifts from serial reference", workers)
				}
			}
		})
	}
}

// TestJoinParallelSignedZero is the regression test for the float-key
// partition routing: -0.0 and +0.0 are equal as Go map keys, so both
// bit patterns must land in the same build partition. Before the hash
// canonicalized the sign, a probe of 0.0 only saw one partition's rows
// and the parallel join silently dropped matches.
func TestJoinParallelSignedZero(t *testing.T) {
	shrinkJoinMorsels(t, 4)
	negZero := math.Copysign(0, -1)
	lKeys := []float64{0, negZero, 1, 0, negZero, 2, 0, negZero, 3, 0, negZero, 4}
	rKeys := []float64{negZero, 0, 5, negZero, 0, 6, negZero, 0, 7, negZero, 0, 8}
	mkTag := func(n int, prefix string) *Vector {
		xs := make([]string, n)
		for i := range xs {
			xs[i] = fmt.Sprintf("%s%02d", prefix, i)
		}
		return StrsV(xs)
	}
	left := NewTable("l", Schema{{Name: "lk", Type: Float}, {Name: "lt", Type: Str}},
		FloatsV(lKeys), mkTag(len(lKeys), "l"))
	right := NewTable("r", Schema{{Name: "rk", Type: Float}, {Name: "rt", Type: Str}},
		FloatsV(rKeys), mkTag(len(rKeys), "r"))
	serial := &Exec{Parallelism: 1}
	wantJoin := render(serial.Join(left, right, "lk", "rk"))
	wantSemi := render(serial.SemiJoin(left, right, "lk", "rk"))
	wantAnti := render(serial.AntiJoin(left, right, "lk", "rk"))
	// Every zero-key left row (8 of them) matches every zero-key right
	// row (8): the serial reference must already reflect that.
	if got := serial.Join(left, right, "lk", "rk").NumRows(); got != 8*8+0 {
		t.Fatalf("serial zero-key join returned %d rows, want 64", got)
	}
	for _, workers := range diffWorkers() {
		e := &Exec{Parallelism: workers}
		if got := render(e.Join(left, right, "lk", "rk")); got != wantJoin {
			t.Fatalf("workers=%d Join drops/misorders signed-zero matches", workers)
		}
		if got := render(e.SemiJoin(left, right, "lk", "rk")); got != wantSemi {
			t.Fatalf("workers=%d SemiJoin drifts on signed zero", workers)
		}
		if got := render(e.AntiJoin(left, right, "lk", "rk")); got != wantAnti {
			t.Fatalf("workers=%d AntiJoin drifts on signed zero", workers)
		}
	}
}

// TestJoinParallelLargeMorsels runs one config at the production morsel
// size with inputs big enough to cross it, so the default-size dispatch
// is exercised too (the differential suite shrinks the size).
func TestJoinParallelLargeMorsels(t *testing.T) {
	c := joinCase{lRows: MorselRows + 500, rRows: MorselRows + 300, card: 2000, kind: Int}
	left, right := c.tables(7)
	want := render((&Exec{Parallelism: 1}).Join(left, right, "lk", "rk"))
	for _, workers := range []int{2, 5} {
		if got := render((&Exec{Parallelism: workers}).Join(left, right, "lk", "rk")); got != want {
			t.Fatalf("workers=%d large join drifts", workers)
		}
	}
}

// TestJoinParallelStepLog checks the logged join step carries the same
// cardinalities at any worker count (the Hive/PDW replay consumes them).
func TestJoinParallelStepLog(t *testing.T) {
	shrinkJoinMorsels(t, 16)
	c := joinCase{lRows: 400, rRows: 300, card: 30, kind: Int}
	left, right := c.tables(11)
	serial := &Exec{Parallelism: 1}
	serial.Join(left, right, "lk", "rk")
	want := serial.Log.Steps[0]
	for _, workers := range diffWorkers() {
		e := &Exec{Parallelism: workers}
		e.Join(left, right, "lk", "rk")
		if got := e.Log.Steps[0]; got != want {
			t.Fatalf("workers=%d join step drifts:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestJoinPartitioning sanity-checks the partitioned build directly:
// every build row lands in exactly one partition, in build-row order
// within its key.
func TestJoinPartitioning(t *testing.T) {
	shrinkJoinMorsels(t, 8)
	c := joinCase{lRows: 0, rRows: 600, card: 50, kind: Int}
	_, right := c.tables(13)
	keys := right.Cols[0].Ints
	jt := buildJoinTable(right, keys, hashIntKey, 4)
	if len(jt.parts) < 2 {
		t.Fatalf("expected a partitioned build, got %d partition(s)", len(jt.parts))
	}
	seen := 0
	for pi, part := range jt.parts {
		for k, rows := range part {
			if want := int(hashIntKey(k) % uint64(len(jt.parts))); want != pi {
				t.Fatalf("key %d in partition %d, hash says %d", k, pi, want)
			}
			for j := 1; j < len(rows); j++ {
				if rows[j] <= rows[j-1] {
					t.Fatalf("key %d rows out of build order: %v", k, rows)
				}
			}
			seen += len(rows)
		}
	}
	if seen != right.NumRows() {
		t.Fatalf("partitions hold %d rows, table has %d", seen, right.NumRows())
	}
}

// BenchmarkJoinParallel is the probe-heavy join bench: a large probe
// side against a mid-size build table, workers=1 vs GOMAXPROCS.
func BenchmarkJoinParallel(b *testing.B) {
	c := joinCase{lRows: 48 * MorselRows / 8, rRows: 4 * MorselRows / 8, card: 20000, kind: Int}
	left, right := c.tables(17)
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := &Exec{Parallelism: workers}
			out := e.Join(left, right, "lk", "rk")
			if out.NumRows() == 0 {
				b.Fatal("empty join output")
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	b.Run("workers=max", func(b *testing.B) { run(b, 0) })
}
