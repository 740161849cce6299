package tpch

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"elephants/internal/relal"
)

// goldenSections splits the committed golden snapshot into one
// FormatAnswer-shaped section per query ID, so stream answers can be
// pinned individually.
func goldenSections(t *testing.T) map[int]string {
	t.Helper()
	data, err := os.ReadFile("testdata/tpch_golden.txt")
	if err != nil {
		t.Skip("golden file missing")
	}
	sections := map[int]string{}
	for _, chunk := range strings.Split(string(data), "== Q") {
		if chunk == "" {
			continue
		}
		id, err := strconv.Atoi(chunk[:strings.IndexAny(chunk, " ")])
		if err != nil {
			t.Fatalf("malformed golden section header: %q", chunk[:20])
		}
		sections[id] = "== Q" + chunk
	}
	if len(sections) != len(Queries) {
		t.Fatalf("golden file has %d sections, want %d", len(sections), len(Queries))
	}
	return sections
}

// goldenCheck returns a StreamConfig.Check pinning every stream answer
// to its golden section.
func goldenCheck(want map[int]string) func(stream, round, id int, out *relal.Table) error {
	return func(stream, round, id int, out *relal.Table) error {
		if got := FormatAnswer(id, out); got != want[id] {
			return fmt.Errorf("answer drifts from golden snapshot")
		}
		return nil
	}
}

// TestStreamGoldenMatrix is the concurrency acceptance gate: N
// goroutine streams replaying all 22 queries over one shared immutable
// DB must each reproduce the golden snapshot byte-for-byte, across the
// full {workers} x {streams} matrix. Run under -race (the CI streams
// job does) this also proves the shared-table path is data-race free.
func TestStreamGoldenMatrix(t *testing.T) {
	want := goldenSections(t)
	db := Generate(GenConfig{SF: goldenSF, Seed: 1, Random64: true})
	for _, workers := range []int{1, 4} {
		for _, streams := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d_streams=%d", workers, streams), func(t *testing.T) {
				res := RunStreams(db, StreamConfig{
					Streams: streams,
					Workers: workers,
					Check:   goldenCheck(want),
				})
				for _, err := range res.Errors {
					t.Error(err)
				}
				if res.Queries != streams*len(Queries) {
					t.Fatalf("ran %d queries, want %d", res.Queries, streams*len(Queries))
				}
				if res.QPS <= 0 {
					t.Fatalf("non-positive QPS: %+v", res)
				}
			})
		}
	}
}

// TestStreamGoldenOverRCFile runs concurrent streams against
// RCFile-backed sources: decompression, column pruning, and the
// source's atomic stats counter all run from multiple goroutines while
// every answer stays golden.
func TestStreamGoldenOverRCFile(t *testing.T) {
	want := goldenSections(t)
	db := rcfileDB(t, goldenSF, 1024)
	res := RunStreams(db, StreamConfig{
		Streams: 3,
		Workers: 2,
		Queries: []int{1, 3, 6, 9, 13, 18, 21},
		Check:   goldenCheck(want),
	})
	for _, err := range res.Errors {
		t.Error(err)
	}
	if res.Scanned.BytesRead == 0 || res.Scanned.BytesSkipped == 0 {
		t.Fatalf("stream scan accounting not populated: %+v", res.Scanned)
	}
}

// TestStreamRoundsAndWarmup covers the config plumbing: rounds multiply
// the query count, warmup does not change results, and per-query times
// accumulate for every replayed ID.
func TestStreamRoundsAndWarmup(t *testing.T) {
	want := goldenSections(t)
	db := Generate(GenConfig{SF: goldenSF, Seed: 1, Random64: true})
	qids := []int{3, 6, 9}
	res := RunStreams(db, StreamConfig{
		Streams: 2,
		Rounds:  2,
		Workers: 2,
		Queries: qids,
		Warmup:  true,
		Check:   goldenCheck(want),
	})
	for _, err := range res.Errors {
		t.Error(err)
	}
	if res.Queries != 2*2*len(qids) {
		t.Fatalf("ran %d queries, want %d", res.Queries, 2*2*len(qids))
	}
	for _, id := range qids {
		if res.PerQuery[id] <= 0 {
			t.Errorf("Q%d accumulated no wall time", id)
		}
	}
	if len(res.PerQuery) != len(qids) {
		t.Fatalf("PerQuery = %v, want ids %v", res.PerQuery, qids)
	}
}

// TestStreamDefaults locks the zero-value config: one stream, one
// round, all 22 queries.
func TestStreamDefaults(t *testing.T) {
	db := Generate(GenConfig{SF: 0.001, Seed: 1, Random64: true})
	res := RunStreams(db, StreamConfig{})
	if res.Streams != 1 || res.Rounds != 1 || res.Queries != len(Queries) {
		t.Fatalf("defaults drifted: %+v", res)
	}
	if res.Elapsed <= 0 || res.Elapsed > time.Minute {
		t.Fatalf("implausible elapsed time %v", res.Elapsed)
	}
}
