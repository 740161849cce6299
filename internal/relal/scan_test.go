package relal

import "testing"

func TestZoneCondMayMatch(t *testing.T) {
	iz := ZoneMap{Kind: Int, IntMin: 10, IntMax: 20}
	fz := ZoneMap{Kind: Float, FloatMin: -1.5, FloatMax: 2.5}
	sz := ZoneMap{Kind: Str, StrMin: "1994-01-03", StrMax: "1994-06-30"}
	cases := []struct {
		cond ZoneCond
		zone ZoneMap
		want bool
	}{
		{IntBetween("x", 15, 30), iz, true},
		{IntBetween("x", 21, 30), iz, false},
		{IntBetween("x", 0, 9), iz, false},
		{IntAtLeast("x", 20), iz, true},
		{IntAtLeast("x", 21), iz, false},
		{IntAtMost("x", 10), iz, true},
		{IntAtMost("x", 9), iz, false},
		{IntEq("x", 10), iz, true},
		{FloatBetween("x", 2.5, 9), fz, true},
		{FloatBetween("x", 2.6, 9), fz, false},
		{FloatAtMost("x", -1.6), fz, false},
		{FloatAtLeast("x", -1.5), fz, true},
		{StrBetween("x", "1994-02-01", "1994-03-01"), sz, true},
		{StrBetween("x", "1994-07-01", "1995-01-01"), sz, false},
		{StrAtMost("x", "1994-01-02"), sz, false},
		{StrEq("x", "1994-01-03"), sz, true},
	}
	for _, tc := range cases {
		got := tc.cond.mayMatch(tc.zone)
		if got != tc.want {
			t.Errorf("%+v vs %+v: mayMatch = %v, want %v", tc.cond, tc.zone, got, tc.want)
		}
	}
}

func TestZonePredicateUnknownColumnCannotPrune(t *testing.T) {
	p := ZonePredicate{IntBetween("missing", 100, 200), StrEq("present", "x")}
	keep := p.MayMatch(func(col string) (ZoneMap, bool) {
		if col == "present" {
			return ZoneMap{Kind: Str, StrMin: "a", StrMax: "z"}, true
		}
		return ZoneMap{}, false
	})
	if !keep {
		t.Error("a column without a zone map must not prune")
	}
	// Kind mismatch likewise cannot prune.
	p2 := ZonePredicate{IntBetween("present", 100, 200)}
	if !p2.MayMatch(func(string) (ZoneMap, bool) {
		return ZoneMap{Kind: Str, StrMin: "a", StrMax: "b"}, true
	}) {
		t.Error("kind-mismatched zone map must not prune")
	}
}

func TestTableSourceStats(t *testing.T) {
	n := 3 * DefaultScanGroupRows / 2 // two virtual groups
	keys := make([]int64, n)
	tags := make([]string, n)
	for i := range keys {
		keys[i] = int64(i)
		tags[i] = "abc" // 4+3 encoded bytes per cell
	}
	tb := NewTable("t", Schema{
		{Name: "k", Type: Int},
		{Name: "s", Type: Str},
	}, IntsV(keys), StrsV(tags))
	src := NewTableSource(tb)

	// Full scan: everything read.
	out, stats := src.ScanTable(nil, nil)
	if out != tb {
		t.Fatal("in-memory source must return the table itself")
	}
	// Sequential keys model as one delta chunk per group, packed at the
	// width of the group's span; raw strings stay length-prefixed.
	g0, g1 := DefaultScanGroupRows, n-DefaultScanGroupRows
	keyBytes := DeltaChunkBytes(g0, FORWidth(uint64(g0-1))) + DeltaChunkBytes(g1, FORWidth(uint64(g1-1)))
	strBytes := int64(n) * 7
	if keyBytes >= int64(n)*8 {
		t.Fatalf("delta model %d B does not beat plain %d B", keyBytes, int64(n)*8)
	}
	wantTotal := keyBytes + strBytes
	if stats.BytesRead != wantTotal || stats.BytesSkipped != 0 {
		t.Errorf("full scan stats = %+v, want read=%d", stats, wantTotal)
	}
	if stats.GroupsRead != 2 {
		t.Errorf("groups read = %d, want 2", stats.GroupsRead)
	}

	// Column subset: the string column's bytes are skipped.
	_, stats = src.ScanTable([]string{"k"}, nil)
	if stats.BytesRead != keyBytes || stats.BytesSkipped != strBytes {
		t.Errorf("subset stats = %+v", stats)
	}

	// Predicate outside the key range: both groups prune, all bytes
	// skipped, but the returned table stays whole (in-memory scans
	// never drop rows — only the model changes).
	out, stats = src.ScanTable([]string{"k"}, ZonePredicate{IntAtLeast("k", int64(n)*10)})
	if stats.GroupsSkipped != 2 || stats.BytesRead != 0 || stats.BytesSkipped != wantTotal {
		t.Errorf("pruned stats = %+v", stats)
	}
	if out.NumRows() != n {
		t.Errorf("in-memory scan dropped rows: %d of %d", out.NumRows(), n)
	}

	// Predicate covering only the first group.
	_, stats = src.ScanTable([]string{"k"}, ZonePredicate{IntAtMost("k", 5)})
	if stats.GroupsRead != 1 || stats.GroupsSkipped != 1 {
		t.Errorf("partial prune stats = %+v", stats)
	}
}

func TestScanSourceLogsStats(t *testing.T) {
	tb := NewTable("base", Schema{{Name: "k", Type: Int}},
		IntsV([]int64{1, 2, 3}))
	e := &Exec{}
	out := e.ScanSource(NewTableSource(tb), []string{"k"}, nil)
	if out.NumRows() != 3 || BaseOf(out) != "base" {
		t.Fatalf("scan output wrong: rows=%d base=%q", out.NumRows(), BaseOf(out))
	}
	if len(e.Log.Steps) != 1 {
		t.Fatalf("steps = %d", len(e.Log.Steps))
	}
	st := e.Log.Steps[0]
	if st.Kind != StepScan || st.LeftBase != "base" {
		t.Errorf("step = %+v", st)
	}
	// Three keys spanning 2 model as a one-byte-wide delta chunk.
	if want := DeltaChunkBytes(3, FORWidth(2)); st.ScanBytesRead != want || st.ScanBytesSkipped != 0 {
		t.Errorf("scan bytes = %d/%d, want %d/0", st.ScanBytesRead, st.ScanBytesSkipped, want)
	}
}

func TestScanStatsSkippedFrac(t *testing.T) {
	if f := (ScanStats{}).SkippedFrac(); f != 0 {
		t.Errorf("empty stats frac = %v", f)
	}
	if f := (ScanStats{BytesRead: 25, BytesSkipped: 75}).SkippedFrac(); f != 0.75 {
		t.Errorf("frac = %v, want 0.75", f)
	}
}
