// Command ycsbbench regenerates the paper's YCSB artifacts: Figures 2–6
// (latency vs throughput for workloads C, B, A, D, E across Mongo-AS,
// Mongo-CS, and SQL-CS) and the §3.4.2 load-time comparison, on a
// scaled-down simulated cluster.
//
// Usage:
//
//	ycsbbench [-workloads CBADE] [-systems Mongo-AS,Mongo-CS,SQL-CS] [-quick]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"elephants/internal/core"
	"elephants/internal/ycsb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err == flag.ErrHelp {
		os.Exit(0)
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "ycsbbench:", err)
		os.Exit(2)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ycsbbench", flag.ContinueOnError)
	workloads := fs.String("workloads", "CBADE", "workload letters to run")
	systems := fs.String("systems", strings.Join(core.Systems, ","), "systems to run")
	quick := fs.Bool("quick", false, "smaller sweep for a fast demo")
	records := fs.Int("records-per-node", 0, "records per server node (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc := core.DefaultYCSBScale()
	if *records > 0 {
		sc.RecordsPerNode = *records
	}
	targets := core.DefaultTargets()
	var sysList []string
	for _, s := range strings.Split(*systems, ",") {
		sysList = append(sysList, strings.TrimSpace(s))
	}

	fmt.Fprintf(w, "YCSB: %d server nodes, %d records/node, %d clients (virtual time)\n\n",
		sc.ServerNodes, sc.RecordsPerNode, sc.Clients)

	figures := []struct {
		letter  string
		title   string
		targets []float64
		kinds   []ycsb.OpKind
	}{
		{"C", "Figure 2. Workload C: 100% reads", targets.C, []ycsb.OpKind{ycsb.OpRead}},
		{"B", "Figure 3. Workload B: 95% reads, 5% updates", targets.B, []ycsb.OpKind{ycsb.OpUpdate, ycsb.OpRead}},
		{"A", "Figure 4. Workload A: 50% reads, 50% updates", targets.A, []ycsb.OpKind{ycsb.OpUpdate, ycsb.OpRead}},
		{"D", "Figure 5. Workload D: 95% reads, 5% appends", targets.D, []ycsb.OpKind{ycsb.OpInsert, ycsb.OpRead}},
		{"E", "Figure 6. Workload E: 95% scans, 5% appends", targets.E, []ycsb.OpKind{ycsb.OpInsert, ycsb.OpScan}},
	}
	for _, fig := range figures {
		if !strings.Contains(*workloads, fig.letter) {
			continue
		}
		wl, _ := ycsb.ByName(fig.letter)
		tg := fig.targets
		if *quick {
			tg = tg[:2]
		}
		curves := make(map[string][]core.CurvePoint)
		for _, system := range sysList {
			curves[system] = core.RunCurve(system, wl, tg, sc)
		}
		core.WriteCurve(w, fig.title, curves, fig.kinds)
		fmt.Fprintln(w)
	}

	// RunLoadTimes returns a map; print it in paper order, not map order.
	fmt.Fprintln(w, "Load times (§3.4.2, virtual time):")
	loads := core.RunLoadTimes(sc)
	for _, system := range core.Systems {
		fmt.Fprintf(w, "  %-10s %v\n", system, loads[system])
	}
	return nil
}
