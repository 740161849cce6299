package tpch

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"elephants/internal/relal"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tpch_golden.txt and steplog_golden.txt from the current engine")

// goldenSF is deliberately tiny so the snapshot stays small and the test
// fast; every query still exercises its full operator tree.
const goldenSF = 0.005

func goldenSnapshot() string {
	return goldenSnapshotOf(Generate(GenConfig{SF: goldenSF, Seed: 1, Random64: true}))
}

func goldenSnapshotOf(db *DB) string {
	var b strings.Builder
	for _, q := range Queries {
		out, _ := RunQuery(q.ID, db)
		b.WriteString(FormatAnswer(q.ID, out))
	}
	return b.String()
}

// TestGoldenAnswers locks all 22 query answers against the committed
// snapshot. The snapshot was produced by the original row-at-a-time
// executor, so this is the proof that the columnar engine is
// answer-preserving.
func TestGoldenAnswers(t *testing.T) {
	got := goldenSnapshot()
	const path = "testdata/tpch_golden.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	diffGolden(t, got, string(want))
}

// TestStepLogGolden locks every Step field of all 22 queries — the
// cardinalities and byte widths the Hive and PDW models replay — against
// the committed snapshot, and requires the serial and the pooled run to
// log the same steps.
func TestStepLogGolden(t *testing.T) {
	db := Generate(GenConfig{SF: goldenSF, Seed: 1, Random64: true})
	var b strings.Builder
	for _, q := range Queries {
		_, serial := RunQueryWorkers(q.ID, db, 1)
		_, pooled := RunQueryWorkers(q.ID, db, 0)
		steps := serial.Widths()
		if !slices.Equal(steps, pooled.Widths()) {
			t.Errorf("Q%d: pooled step log differs from the serial one", q.ID)
		}
		fmt.Fprintf(&b, "Q%d\n", q.ID)
		for _, s := range steps {
			fmt.Fprintf(&b, "%+v\n", s)
		}
	}
	got := b.String()
	const path = "testdata/steplog_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing step-log golden (run with -update to create): %v", err)
	}
	diffGolden(t, got, string(want))
}

func diffGolden(t *testing.T, got, want string) {
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

// TestGoldenAnswersParallel locks the morsel-parallel kernels to the
// same snapshot: every worker-pool size must reproduce the golden file
// byte-for-byte (deterministic merge order, row-order accumulation).
func TestGoldenAnswersParallel(t *testing.T) {
	want, err := os.ReadFile("testdata/tpch_golden.txt")
	if err != nil {
		t.Skip("golden file missing")
	}
	for _, workers := range []int{2, 5} {
		old := DefaultWorkers
		DefaultWorkers = workers
		got := goldenSnapshot()
		DefaultWorkers = old
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			diffGolden(t, got, string(want))
		})
	}
}

// TestDistCutShipList composes every registered cut the way a dist
// coordinator does — the suffix over the prefix's Ship columns alone —
// and requires each answer byte-identical to the golden snapshot, so a
// Ship list that misses a column the suffix reads fails here, with no
// network in the way. It also requires the Ship types to be the
// prefix's, since a coordinator refuses a shard's answer of any other.
func TestDistCutShipList(t *testing.T) {
	want := goldenSections(t)
	db := Generate(GenConfig{SF: goldenSF, Seed: 1, Random64: true})
	for id, cut := range Cuts {
		e := &relal.Exec{}
		shipped := e.Project(cut.Prefix(e, db), cut.Ship.Names()...)
		if !slices.Equal(shipped.Schema, cut.Ship) {
			t.Errorf("Q%d's prefix outputs %v, its Ship schema says %v", id, shipped.Schema, cut.Ship)
		}
		got := FormatAnswer(id, cut.Suffix(e, db, func() *relal.Table { return shipped }))
		if got != want[id] {
			t.Errorf("Q%d over its Ship columns %v drifts from the golden snapshot:\n%s", id, cut.Ship.Names(), got)
		}
	}
}
