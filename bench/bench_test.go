package main

import (
	"regexp"
	"testing"

	"elephants/internal/tpch"
)

const specPath = "../BENCHMARK.json"

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 1, seconds: 1, trace: trace,
		sf: 0.002, check: true, root: "..", outDir: t.TempDir(),
	}
}

// assertDeclared checks a run's values against both declared sets:
// every metric present once, with its unit, and none undeclared.
func assertDeclared(t *testing.T, s *spec, o *outcome, trace bool) {
	t.Helper()
	metrics, err := o.vals.render(s, trace)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, d := range s.defs(trace) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
		if got := metrics[d.Name].Unit; got != d.Unit {
			t.Errorf("%s reported in %q, declared in %q", d.Name, got, d.Unit)
		}
	}
	if len(metrics) != len(s.defs(trace)) {
		t.Errorf("%d metrics reported, %d declared", len(metrics), len(s.defs(trace)))
	}
}

// TestSmoke runs every workload briefly with all checks on, traced so
// that one run yields both metric sets, and mem-stream untraced as well
// so that the path without a tracer runs too.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		workload string
		trace    bool
	}
	runs := []run{{memStream, false}}
	for _, w := range s.Workloads {
		runs = append(runs, run{w.Name, true})
	}
	for _, r := range runs {
		o, err := runWorkload(smokeConfig(t, r.workload, r.trace))
		if err != nil {
			t.Fatalf("%s: %v", r.workload, err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", r.workload, o.failed, o.attempted)
		}
		assertDeclared(t, s, o, false)
		if r.trace {
			assertDeclared(t, s, o, true)
		}
		for _, d := range s.EndToEnd {
			if o.vals.m[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", r.workload, d.Name, o.vals.m[d.Name])
			}
		}
	}
}

// TestReferenceIsGolden pins the benchmark's reference answers to the
// repository's golden snapshot at the snapshot's scale factor and seed.
func TestReferenceIsGolden(t *testing.T) {
	cfg := config{sf: goldenSF, seed: goldenSeed, check: true, root: ".."}
	if _, err := newReference(cfg, tpch.Generate(cfg.gen())); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptReferenceFails shows that the correctness gate can fail:
// one changed byte in one reference answer is a failed operation.
func TestCorruptReferenceFails(t *testing.T) {
	cfg := config{sf: 0.002, seed: 1}
	db := tpch.Generate(cfg.gen())
	ref := referenceOf(db)
	out, _ := tpch.RunQueryWorkers(6, db, 0)
	o := &outcome{vals: newValues()}
	ref.check(o, "intact", 6, out)
	if o.failed != 0 {
		t.Fatalf("intact reference: %d failures", o.failed)
	}
	ref[6] = ref[6][:len(ref[6])-1] + " \n"
	ref.check(o, "corrupted", 6, out)
	if o.failed != 1 {
		t.Fatalf("corrupted reference: %d failures, want 1", o.failed)
	}
}

func TestRenderRejectsUndeclared(t *testing.T) {
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	v := newValues()
	for _, d := range s.EndToEnd {
		v.set(d.Name, 1)
	}
	if _, err := v.render(s, false); err != nil {
		t.Fatal(err)
	}
	v.set("not.declared", 1)
	if _, err := v.render(s, false); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	delete(v.m, "not.declared")
	delete(v.m, "setup_s")
	if _, err := v.render(s, false); err == nil {
		t.Error("a missing metric was accepted")
	}
}
