package relal

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// shrinkJoinMorsels drops the join morsel size so the multi-morsel
// probe concatenation engages on test-sized tables; restored on cleanup.
func shrinkJoinMorsels(t testing.TB, rows int) {
	t.Helper()
	old := joinMorselRows
	joinMorselRows = rows
	t.Cleanup(func() { joinMorselRows = old })
}

// diffWorkers is the worker-count matrix the differential suites run:
// the calling goroutine alone, the smallest pool, an odd pool that shares
// the morsels unevenly, and whatever this host has.
func diffWorkers() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// oracleJoin is the naive reference for the three joins: a nested loop
// over boxed rows, left-major, the key cells compared as the int64s they
// are. join holds left ++ right for every matching pair; semi and anti
// hold the left rows with any / no match. It shares no code with the
// kernel in join.go.
func oracleJoin(left, right []Row, lk, rk int) (join, semi, anti []Row) {
	for _, l := range left {
		matched := false
		for _, r := range right {
			if l[lk].(int64) != r[rk].(int64) {
				continue
			}
			matched = true
			join = append(join, append(append(Row{}, l...), r...))
		}
		if matched {
			semi = append(semi, l)
		} else {
			anti = append(anti, l)
		}
	}
	return join, semi, anti
}

// checkJoins holds Join, SemiJoin and AntiJoin of left and right, at the
// given worker count, to oracleJoin's answers.
func checkJoins(workers int, left, right *Table, lk, rk string, join, semi, anti []Row) error {
	e := &Exec{Parallelism: workers}
	if err := sameRows(RowsOf(e.Join(left, right, lk, rk)), join); err != nil {
		return fmt.Errorf("workers=%d Join: %v", workers, err)
	}
	if err := sameRows(RowsOf(e.SemiJoin(left, right, lk, rk)), semi); err != nil {
		return fmt.Errorf("workers=%d SemiJoin: %v", workers, err)
	}
	if err := sameRows(RowsOf(e.AntiJoin(left, right, lk, rk)), anti); err != nil {
		return fmt.Errorf("workers=%d AntiJoin: %v", workers, err)
	}
	return nil
}

// joinCase builds one randomized build/probe table pair. Key values are
// drawn from [0, card), times stride, so low cardinalities force
// duplicate keys on both sides; sentinel=true plants MinInt64 in both key
// columns. Beside the key every table carries a Float payload (NaN
// planted with the sentinels) and a Str payload — raw on the probe side,
// dict-encoded on the build side — so the output reads every vector
// representation.
type joinCase struct {
	name         string
	lRows, rRows int
	card         int64
	stride       int64 // spacing of the key values (0 = 1)
	sentinel     bool
	extremes     bool   // both int64 extremes on the build side, probe keys beside them
	disjoint     bool   // probe keys shifted outside the build range (no-match)
	allMatch     bool   // card 1: every probe row matches every build row's key
	leftView     bool   // probe through a filtered view
	rightView    bool   // build through a filtered view
	rep          string // the key table representation the build must take ("" = any)
}

func (c joinCase) tables(seed int64) (left, right *Table) {
	rng := rand.New(rand.NewSource(seed))
	// The probe side's extremes also take the keys just outside the
	// build's: beside each int64 extreme, and beside [0, card).
	edgeKeys := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, -1, c.card}
	genKeys := func(n int, shift int64, probe bool) *Vector {
		card, stride := c.card, max(c.stride, 1)
		if c.allMatch {
			card = 1
		}
		pool := edgeKeys[:2]
		if probe {
			pool = edgeKeys
		}
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63n(card)*stride + shift
			if c.sentinel && rng.Intn(16) == 0 {
				xs[i] = math.MinInt64
			}
			if c.extremes && rng.Intn(8) == 0 {
				xs[i] = pool[rng.Intn(len(pool))]
			}
		}
		return IntsV(xs)
	}
	payload := func(n int) *Vector {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*1e6 - 5e5
			if c.sentinel && rng.Intn(16) == 0 {
				xs[i] = math.NaN()
			}
		}
		return FloatsV(xs)
	}
	tags := func(n int) []string {
		xs := make([]string, n)
		for i := range xs {
			xs[i] = dictPool[rng.Intn(len(dictPool))]
		}
		return xs
	}
	shift := int64(0)
	if c.disjoint {
		shift = c.card + 1000
	}
	left = NewTable("l", Schema{{Name: "lk", Type: Int}, {Name: "lv", Type: Float}, {Name: "ls", Type: Str}},
		genKeys(c.lRows, shift, true), payload(c.lRows), StrsV(tags(c.lRows)))
	right = NewTable("r", Schema{{Name: "rk", Type: Int}, {Name: "rv", Type: Float}, {Name: "rs", Type: Str}},
		genKeys(c.rRows, 0, false), payload(c.rRows), EncodeDict(tags(c.rRows)))
	return left, right
}

// viewOf returns t filtered to roughly half its rows, so the kernels
// also run over selection vectors.
func viewOf(t *Table, col string) *Table {
	v := t.FloatCol(col)
	return (&Exec{Parallelism: 1}).Filter(t, func(i int) bool { return v.Get(i) > 0 })
}

// TestJoinParallelDifferential holds Join, SemiJoin and AntiJoin to the
// naive oracle at every worker count, one included: randomized build and
// probe tables — duplicate keys, empty sides, all-match, no-match,
// MinInt64 sentinels, a wide sparse key span, both int64 extremes, view
// inputs on both sides — with the morsel size shrunk so every probe
// concatenates several morsels. Cases naming a key table representation
// must build it.
func TestJoinParallelDifferential(t *testing.T) {
	shrinkJoinMorsels(t, 16)
	cases := []joinCase{
		{name: "int-dups", lRows: 500, rRows: 300, card: 40, rep: "slots"},
		{name: "int-high-card", lRows: 400, rRows: 400, card: 1 << 40},
		{name: "int-sentinels", lRows: 300, rRows: 200, card: 25, sentinel: true},
		// Span past maxDenseGroupSpan but within slotsPerRow·rows, as
		// orders' keys are: the density rule still picks slots.
		{name: "int-orders-span", lRows: 500, rRows: 600, card: 8 * 600, rep: "slots"},
		{name: "int-wide", lRows: 400, rRows: 300, card: 40, stride: 1 << 20, rep: "ints"},
		{name: "int-extremes", lRows: 300, rRows: 200, card: 25, extremes: true, rep: "strs"},
		{name: "int-no-match", lRows: 250, rRows: 250, card: 50, disjoint: true},
		{name: "int-all-match", lRows: 120, rRows: 90, card: 1, allMatch: true},
		{name: "int-empty-build", lRows: 200, rRows: 0, card: 10},
		{name: "int-empty-probe", lRows: 0, rRows: 200, card: 10},
		{name: "int-both-empty", lRows: 0, rRows: 0, card: 10},
		{name: "int-views", lRows: 500, rRows: 400, card: 45, leftView: true, rightView: true},
		{name: "int-left-view", lRows: 450, rRows: 150, card: 25, leftView: true},
		{name: "int-right-view", lRows: 150, rRows: 450, card: 25, sentinel: true, rightView: true},
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
			if c.rep != "" {
				if got := keyRep(right, "rk"); got != c.rep {
					t.Fatalf("build takes the %s representation, want %s", got, c.rep)
				}
			}
			join, semi, anti := oracleJoin(RowsOf(left), RowsOf(right), 0, 0)
			for _, workers := range diffWorkers() {
				if err := checkJoins(workers, left, right, "lk", "rk", join, semi, anti); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestJoinParallelLargeMorsels runs one config at the production morsel
// size with inputs big enough to cross it, so production-size probe
// morsels and a build side past one morsel are exercised too (the
// differential suite shrinks the size).
func TestJoinParallelLargeMorsels(t *testing.T) {
	c := joinCase{lRows: MorselRows + 500, rRows: MorselRows + 300, card: 2000}
	left, right := c.tables(7)
	join, semi, anti := oracleJoin(RowsOf(left), RowsOf(right), 0, 0)
	for _, workers := range []int{1, 2, 5} {
		if err := checkJoins(workers, left, right, "lk", "rk", join, semi, anti); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinParallelStepLog checks the logged join step carries the same
// cardinalities at any worker count (the Hive/PDW replay consumes them).
func TestJoinParallelStepLog(t *testing.T) {
	shrinkJoinMorsels(t, 16)
	c := joinCase{lRows: 400, rRows: 300, card: 30}
	left, right := c.tables(11)
	serial := &Exec{Parallelism: 1}
	serial.Join(left, right, "lk", "rk")
	want := serial.Log.Widths()[0]
	for _, workers := range diffWorkers() {
		e := &Exec{Parallelism: workers}
		e.Join(left, right, "lk", "rk")
		if got := e.Log.Widths()[0]; got != want {
			t.Fatalf("workers=%d join step drifts:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// keyRep names the groupTable representation of the key table a join
// builds over t's column col: the join-side twin of tableRep.
func keyRep(t *Table, col string) string {
	return repOf(buildKeyTable(t, t.Schema.Col(col)).tab)
}

// TestJoinKeyTable checks the key table directly, in each representation
// over a dense build side and a view: every build row sits on exactly one
// chain, a chain holds one key's rows in ascending build-row order, and
// first(key) returns the chain's head.
func TestJoinKeyTable(t *testing.T) {
	for _, c := range []joinCase{
		{name: "slots", rRows: 600, card: 50},
		{name: "ints", rRows: 600, card: 50, sentinel: true},
		{name: "strs", rRows: 600, card: 50, extremes: true},
	} {
		_, dense := c.tables(13)
		for _, right := range []*Table{dense, viewOf(dense, "rv")} {
			kt := buildKeyTable(right, right.Schema.Col("rk"))
			if rep := repOf(kt.tab); rep != c.name {
				t.Fatalf("%s: key table takes the %s representation", c.name, rep)
			}
			keys := right.IntCol("rk")
			reached := make([]int, right.NumRows())
			for _, h := range kt.head {
				j := h - 1
				k := keys.Get(int(j))
				if got := kt.first(k); got != j {
					t.Fatalf("%s: first(%d) = %d, want the chain head %d", c.name, k, got, j)
				}
				for prev := int32(-1); j >= 0; prev, j = j, kt.next[j] {
					if j <= prev {
						t.Fatalf("%s: key %d chain steps back from row %d to %d", c.name, k, prev, j)
					}
					if got := keys.Get(int(j)); got != k {
						t.Fatalf("%s: row %d (key %d) on key %d's chain", c.name, j, got, k)
					}
					reached[j]++
				}
			}
			for j, n := range reached {
				if n != 1 {
					t.Fatalf("%s: build row %d reached %d times", c.name, j, n)
				}
			}
		}
	}
}

// TestJoinRejectsNonIntKeys: hash-join keys are Int columns. A raw Str,
// a dict Str or a Float key on either side panics, naming the table and
// the column.
func TestJoinRejectsNonIntKeys(t *testing.T) {
	sch := func(prefix string) Schema {
		return Schema{{Name: prefix + "k", Type: Int}, {Name: prefix + "s", Type: Str},
			{Name: prefix + "d", Type: Str}, {Name: prefix + "f", Type: Float}}
	}
	cols := func() []*Vector {
		return []*Vector{IntsV([]int64{1, 2}), StrsV([]string{"a", "b"}),
			EncodeDict([]string{"a", "b"}), FloatsV([]float64{1, 2})}
	}
	probe := NewTable("probe", sch("p"), cols()...)
	build := NewTable("build", sch("b"), cols()...)
	e := &Exec{}
	ops := map[string]func(l, r *Table, lk, rk string) *Table{
		"Join": e.Join, "SemiJoin": e.SemiJoin, "AntiJoin": e.AntiJoin,
	}
	for name, op := range ops {
		for _, suffix := range []string{"s", "d", "f"} {
			for _, bad := range []struct{ lk, rk, table, col string }{
				{"p" + suffix, "b" + suffix, "probe", "p" + suffix}, // both sides: the probe side is named first
				{"pk", "b" + suffix, "build", "b" + suffix},
			} {
				func() {
					defer func() {
						msg := fmt.Sprint(recover())
						for _, want := range []string{bad.table, bad.col, "Int"} {
							if !strings.Contains(msg, want) {
								t.Errorf("%s(%s, %s) panic = %q, want it to name %q", name, bad.lk, bad.rk, msg, want)
							}
						}
					}()
					op(probe, build, bad.lk, bad.rk)
				}()
			}
		}
	}
}

// BenchmarkJoinParallel is the probe-heavy join bench, workers=1 vs
// GOMAXPROCS, over two build sides: dim, a mid-size table with duplicate
// keys, and orders, 15,000 unique keys over a span of 60,000 (TPC-H
// orderkeys at SF 0.01) — more than one morsel — probed by four rows a
// key in key order, as lineitem does.
func BenchmarkJoinParallel(b *testing.B) {
	dimL, dimR := joinCase{lRows: 48 * MorselRows / 8, rRows: 4 * MorselRows / 8, card: 20000}.tables(17)
	rng := rand.New(rand.NewSource(17))
	orderKeys, lineKeys := make([]int64, 15000), make([]int64, 4*15000)
	for i := range orderKeys {
		orderKeys[i] = int64(4*i + rng.Intn(4))
	}
	for i := range lineKeys {
		lineKeys[i] = orderKeys[i/4]
	}
	ordL := NewTable("l", Schema{{Name: "lk", Type: Int}}, IntsV(lineKeys))
	ordR := NewTable("r", Schema{{Name: "rk", Type: Int}}, IntsV(orderKeys))
	run := func(b *testing.B, left, right *Table, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := &Exec{Parallelism: workers}
			out := e.Join(left, right, "lk", "rk")
			if out.NumRows() == 0 {
				b.Fatal("empty join output")
			}
		}
	}
	for _, shape := range []struct {
		name        string
		left, right *Table
	}{{"dim", dimL, dimR}, {"orders", ordL, ordR}} {
		b.Run(shape.name+"/workers=1", func(b *testing.B) { run(b, shape.left, shape.right, 1) })
		b.Run(shape.name+"/workers=max", func(b *testing.B) { run(b, shape.left, shape.right, 0) })
	}
}
