package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ycsb_figures_golden.txt from the current models")

// TestYCSBFiguresGolden pins what `ycsbbench -quick` prints, byte for
// byte: Figures 2–6 at the first two targets of each curve and the
// load-time table, all in virtual time, so any drift in the mongod,
// shard, SQL-engine or simulator models moves these lines. It is the
// YCSB half's counterpart of core's TestPaperTablesGolden.
func TestYCSBFiguresGolden(t *testing.T) {
	const path = "testdata/ycsb_figures_golden.txt"
	var buf bytes.Buffer
	if err := run([]string{"-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	got, wl := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(wl); i++ {
		if got[i] != wl[i] {
			t.Fatalf("YCSB figures drift at line %d:\n got: %s\nwant: %s", i+1, got[i], wl[i])
		}
	}
	if len(got) != len(wl) {
		t.Fatalf("YCSB figures drift: got %d lines, want %d", len(got), len(wl))
	}
}
