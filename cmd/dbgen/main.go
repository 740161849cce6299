// Command dbgen generates TPC-H tables as pipe-delimited text, like the
// TPC dbgen tool, including the paper's two generator variants: the
// 32-bit RANDOM (which overflows at huge scale factors) and the
// RANDOM64 fix.
//
// Usage:
//
//	dbgen -sf 0.01 -table lineitem            # one table to stdout
//	dbgen -sf 0.01 -o /tmp/tpch               # all tables to a directory
//	dbgen -sf 0.01 -cluster l_shipdate -o d   # lineitem in shipdate order
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"elephants/internal/relal"
	"elephants/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.01, "scale factor")
	table := flag.String("table", "", "single table to emit on stdout (default: all)")
	outDir := flag.String("o", "", "output directory for .tbl files")
	seed := flag.Int64("seed", 1, "generator seed")
	random64 := flag.Bool("random64", true, "use the RANDOM64 fix (false reproduces the 32-bit overflow bug)")
	cluster := flag.String("cluster", "", "cluster the owning base table on this column (e.g. l_shipdate), so zone maps can prune range scans")
	flag.Parse()
	if err := checkTable(*table); err != nil {
		fmt.Fprintln(os.Stderr, "dbgen:", err)
		os.Exit(1)
	}

	db := tpch.Generate(tpch.GenConfig{SF: *sf, Seed: *seed, Random64: *random64})
	if *cluster != "" {
		name, err := db.Cluster(*cluster)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbgen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "clustered %s on %s\n", name, *cluster)
	}

	if *table != "" {
		if err := writeTable(os.Stdout, db.Table(*table)); err != nil {
			fmt.Fprintln(os.Stderr, "dbgen:", err)
			os.Exit(1)
		}
		return
	}
	dir := *outDir
	if dir == "" {
		dir = "."
	}
	for _, name := range tpch.TableNames {
		path := filepath.Join(dir, name+".tbl")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbgen:", err)
			os.Exit(1)
		}
		w := bufio.NewWriter(f)
		if err := writeTable(w, db.Table(name)); err != nil {
			fmt.Fprintln(os.Stderr, "dbgen:", err)
			os.Exit(1)
		}
		w.Flush()
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s (%d rows)\n", path, db.Table(name).NumRows())
	}
}

// checkTable rejects a -table value that names no base table ("" means
// all of them), before any data is generated.
func checkTable(name string) error {
	if name == "" || slices.Contains(tpch.TableNames, name) {
		return nil
	}
	return fmt.Errorf("unknown table %q (valid: %s)", name, strings.Join(tpch.TableNames, ", "))
}

// cellWriter formats one column's cells straight from its typed vector
// — no boxed rows. Float cells keep fmt's %v shortest-exact form so the
// emitted text is identical to the old row-based writer's.
type cellWriter func(w *bufio.Writer, i int) error

func columnWriter(t *relal.Table, c relal.Column) cellWriter {
	switch c.Type {
	case relal.Int:
		v := t.IntCol(c.Name)
		return func(w *bufio.Writer, i int) error {
			_, err := w.WriteString(strconv.FormatInt(v.Get(i), 10))
			return err
		}
	case relal.Float:
		v := t.FloatCol(c.Name)
		return func(w *bufio.Writer, i int) error {
			_, err := w.WriteString(strconv.FormatFloat(v.Get(i), 'g', -1, 64))
			return err
		}
	default:
		v := t.StrCol(c.Name)
		return func(w *bufio.Writer, i int) error {
			_, err := w.WriteString(v.Get(i))
			return err
		}
	}
}

func writeTable(out io.Writer, t *relal.Table) error {
	w, ok := out.(*bufio.Writer)
	if !ok {
		w = bufio.NewWriter(out)
	}
	cols := make([]cellWriter, len(t.Schema))
	for ci, c := range t.Schema {
		cols[ci] = columnWriter(t, c)
	}
	n := t.NumRows()
	for i := 0; i < n; i++ {
		for ci, cw := range cols {
			if ci > 0 {
				if err := w.WriteByte('|'); err != nil {
					return err
				}
			}
			if err := cw(w, i); err != nil {
				return err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return w.Flush()
}
