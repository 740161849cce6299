// Command tpchbench regenerates the paper's TPC-H artifacts: Table 2
// (load times), Table 3 (22 queries × 4 scale factors with speedups and
// scaling factors), Table 4 (Q1 map-phase time), Table 5 (Q22 sub-query
// breakdown), and Figure 1 (normalized means), comparing the Hive and
// PDW models on the simulated 16-node cluster.
//
// Engine throughput (query streams, RCFile scans, HTAP, distributed
// scatter/gather) is measured by the engine benchmark, `bash
// bench/run.sh`, not here.
//
// Usage:
//
//	tpchbench [-laptop-sf 0.002] [-sf 250,1000,4000,16000] [-queries 1,5,19] [-seed 1] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"elephants/internal/core"
)

func main() {
	laptopSF := flag.Float64("laptop-sf", 0.002, "functional dataset scale factor")
	sfList := flag.String("sf", "250,1000,4000,16000", "modeled scale factors (GB), comma-separated")
	queries := flag.String("queries", "", "query IDs to run (default: all 22)")
	seed := flag.Int64("seed", 1, "generator seed")
	workers := flag.Int("workers", 0, "executor worker-pool size (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	var qids []int
	var err error
	if *queries != "" {
		qids, err = parseInts(*queries)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tpchbench:", err)
			os.Exit(1)
		}
	}

	cfg := core.TPCHConfig{LaptopSF: *laptopSF, Seed: *seed, Workers: *workers, Queries: qids}
	cfg.ScaleFactors, err = parseFloats(*sfList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpchbench:", err)
		os.Exit(1)
	}

	res := core.RunTPCH(cfg)
	fmt.Printf("TPC-H: Hive vs PDW on a simulated 16-node cluster (functional data at SF %g)\n\n", res.Config.LaptopSF)
	res.WriteTable2(os.Stdout)
	fmt.Println()
	res.WriteTable3(os.Stdout)
	fmt.Println()
	res.WriteTable4(os.Stdout)
	fmt.Println()
	res.WriteTable5(os.Stdout)
	fmt.Println()
	res.WriteFigure1(os.Stdout)
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad scale factor %q", part)
		}
		out = append(out, f)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || i < 1 || i > 22 {
			return nil, fmt.Errorf("bad query id %q", part)
		}
		out = append(out, i)
	}
	return out, nil
}
