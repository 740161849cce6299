// Command enginebench is the repository's benchmark: it drives the real
// engine (tpch, relal, rcfile, delta, docstore, htap, fault, dist) through
// its public functions on four workloads and prints the metrics that
// BENCHMARK.json declares. README.md explains the workloads and metrics.
//
// With -workload <name> it runs that workload in this process and prints
// one JSON object as the last line of standard output. Without it, it
// runs every workload in a child process of its own, untraced and traced,
// and prints every metric by name; with -repeat N it runs the untraced
// set N times, each with another seed, and compares each end-to-end
// metric's spread with its bound.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runResult is the last line a single-workload run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var trace, repeat int
	var seconds float64
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run in this process, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&seconds, "seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 records spans, runs the layer probes and reports the per-layer metrics")
	flag.Float64Var(&cfg.sf, "sf", 0.01, "TPC-H scale factor")
	flag.BoolVar(&cfg.check, "check", false, "check every answer, and crash-test durability on htap-mixed")
	flag.IntVar(&repeat, "repeat", 0, "run the untraced set this many times and report each metric's spread")
	flag.StringVar(&cfg.root, "root", ".", "root of the checkout")
	flag.StringVar(&cfg.outDir, "out", "", "directory for traces and scratch files (default <root>/bench/out)")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(cfg.root, "bench", "out")
	}

	s, err := loadSpec(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	cfg.seconds = seconds
	if cfg.seconds <= 0 {
		cfg.seconds = float64(s.RunSeconds)
	}

	ok := true
	switch {
	case cfg.workload != "all" && repeat == 0:
		ok, err = runOne(cfg, s)
	case repeat > 0:
		ok, err = runRepeat(cfg, s, repeat)
	default:
		ok, err = runAll(cfg, s)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "enginebench:", err)
	os.Exit(2)
}

// runOne runs one workload in this process and prints its result line.
func runOne(cfg config, s *spec) (bool, error) {
	if !s.hasWorkload(cfg.workload) {
		return false, fmt.Errorf("BENCHMARK.json declares no workload %q", cfg.workload)
	}
	o, err := runWorkload(cfg)
	if err != nil {
		return false, err
	}
	metrics, err := o.vals.render(s, cfg.trace)
	if err != nil {
		return false, err
	}
	res := runResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	v := o.vals.m
	fmt.Fprintf(os.Stderr, "%s seed=%d sf=%g gomaxprocs=%d: %d rounds, %d queries, %d writes sampled; %d of %d operations failed\n",
		cfg.workload, cfg.seed, cfg.sf, int(v["bench.gomaxprocs"]), int(v["bench.rounds"]), int(v["bench.queries"]),
		int(v["bench.writes"]), o.failed, o.attempted)
	printMetrics(os.Stderr, s.defs(cfg.trace), metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

func printMetrics(w *os.File, defs []metricDef, metrics map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
}

// child runs one workload in a process of its own, so that set-up time
// and peak memory belong to that workload alone, and returns the result
// line it printed.
func child(cfg config, workload string, seed int64, trace bool) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-sf", strconv.FormatFloat(cfg.sf, 'g', -1, 64),
		"-root", cfg.root, "-out", cfg.outDir,
	}
	if trace {
		args = append(args, "-trace", "1")
	}
	if cfg.check {
		args = append(args, "-check")
	}
	cmd := exec.Command(exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	if runErr != nil {
		// The parent prints the numbers itself; the child's own report
		// matters only when it says what went wrong.
		os.Stderr.Write(stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return runResult{}, fmt.Errorf("%s: no result (%v)", workload, runErr)
	}
	return res, nil
}

// selected is the workloads a multi-run mode covers.
func selected(cfg config, s *spec) []string {
	if cfg.workload != "all" {
		return []string{cfg.workload}
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// runAll prints every end-to-end and per-layer metric of every workload.
func runAll(cfg config, s *spec) (bool, error) {
	ok := true
	for _, name := range selected(cfg, s) {
		for _, trace := range []bool{false, true} {
			res, err := child(cfg, name, cfg.seed, trace)
			if err != nil {
				return false, err
			}
			kind := "end-to-end"
			if trace {
				kind = "per-layer (traced run)"
			}
			fmt.Printf("%s, %s: %d of %d operations failed\n", name, kind, res.Failed, res.Attempted)
			printMetrics(os.Stdout, s.defs(trace), res.Metrics)
			ok = ok && res.Correct
		}
	}
	return ok, nil
}

// runRepeat runs the untraced set n times, run i with seed+i, and
// reports each end-to-end metric's minimum, median, maximum and spread:
// the distance between its first and third quartile as a share of its
// median, which is what the acceptance check compares with the bound.
// setup_s is reported but not held to its bound, as there.
func runRepeat(cfg config, s *spec, n int) (bool, error) {
	if n < 2 {
		return false, fmt.Errorf("-repeat needs at least 2 runs")
	}
	ok := true
	for _, name := range selected(cfg, s) {
		samples := make(map[string][]float64)
		for i := 0; i < n; i++ {
			res, err := child(cfg, name, cfg.seed+int64(i), false)
			if err != nil {
				return false, err
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: %d of %d operations failed\n", name, cfg.seed+int64(i), res.Failed, res.Attempted)
				ok = false
			}
			for metric, mv := range res.Metrics {
				samples[metric] = append(samples[metric], mv.Value)
			}
		}
		fmt.Printf("%s, %d runs\n  %-20s %12s %12s %12s %8s %6s\n", name, n, "metric", "min", "median", "max", "spread", "bound")
		for _, d := range s.EndToEnd {
			xs := samples[d.Name]
			sort.Float64s(xs)
			q1, q3 := quartiles(xs)
			spread := ratio(q3-q1, median(xs))
			verdict := ""
			if spread > d.Bound && d.Name != "setup_s" {
				verdict = "  SPREAD EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("  %-20s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", d.Name, xs[0], median(xs), xs[n-1], spread, d.Bound, verdict)
		}
	}
	return ok, nil
}
