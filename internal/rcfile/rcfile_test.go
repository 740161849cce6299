package rcfile

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"elephants/internal/relal"
	"elephants/internal/tpch"
)

func sampleTable(rows int) *relal.Table {
	keys := make([]int64, 0, rows)
	vals := make([]float64, 0, rows)
	strs := make([]string, 0, rows)
	for i := 0; i < rows; i++ {
		keys = append(keys, int64(i))
		vals = append(vals, float64(i)*1.5)
		strs = append(strs, fmt.Sprintf("row-%d", i))
	}
	return relal.NewTable("t", relal.Schema{
		{Name: "k", Type: relal.Int},
		{Name: "v", Type: relal.Float},
		{Name: "s", Type: relal.Str},
	}, relal.IntsV(keys), relal.FloatsV(vals), relal.StrsV(strs))
}

func TestRoundTrip(t *testing.T) {
	src := sampleTable(1000)
	data, err := NewWriter(128).Write(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(data, src.Schema, "t")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != src.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), src.NumRows())
	}
	srcRows, gotRows := relal.RowsOf(src), relal.RowsOf(got)
	for i := range srcRows {
		for c := range srcRows[i] {
			if gotRows[i][c] != srcRows[i][c] {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, c, gotRows[i][c], srcRows[i][c])
			}
		}
	}
}

func TestRoundTripOfView(t *testing.T) {
	// Writing a filtered view must serialize only the selected rows (the
	// writer compacts internally).
	src := sampleTable(100)
	e := &relal.Exec{}
	k := src.IntCol("k")
	f := e.Filter(src, func(i int) bool { return k.Get(i)%10 == 0 })
	data, err := NewWriter(4).Write(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(data, f.Schema, "t")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 10 {
		t.Fatalf("rows = %d, want 10", got.NumRows())
	}
	gk := got.IntCol("k")
	for i := 0; i < got.NumRows(); i++ {
		if gk.Get(i) != int64(i*10) {
			t.Fatalf("row %d k = %d, want %d", i, gk.Get(i), i*10)
		}
	}
}

func TestEmptyTable(t *testing.T) {
	src := sampleTable(0)
	data, err := NewWriter(0).Write(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(data, src.Schema, "t")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", got.NumRows())
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := Read([]byte("nope"), nil, "t"); err == nil {
		t.Error("bad magic should fail")
	}
	src := sampleTable(10)
	data, _ := NewWriter(0).Write(src)
	if _, err := Read(data, src.Schema[:2], "t"); err == nil {
		t.Error("schema mismatch should fail")
	}
	if _, err := Read(data[:len(data)-5], src.Schema, "t"); err == nil {
		t.Error("truncated file should fail")
	}
}

func TestCompressionOnTPCH(t *testing.T) {
	db := tpch.Generate(tpch.GenConfig{SF: 0.002, Seed: 1, Random64: true})
	ratio, err := CompressionRatio(db.Lineitem)
	if err != nil {
		t.Fatal(err)
	}
	// Columnar gzip on TPC-H achieves heavy compression; the Hive cost
	// model assumes ~0.115. Accept a broad band, but it must compress.
	if ratio >= 0.7 {
		t.Errorf("lineitem compression ratio = %.3f, expected strong compression", ratio)
	}
	if ratio <= 0.01 {
		t.Errorf("compression ratio = %.3f suspiciously low", ratio)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		src := relal.NewTable("p",
			relal.Schema{{Name: "x", Type: relal.Int}},
			relal.IntsV(vals))
		data, err := NewWriter(7).Write(src)
		if err != nil {
			return false
		}
		got, err := Read(data, src.Schema, "p")
		if err != nil || got.NumRows() != len(vals) {
			return false
		}
		gx := got.IntCol("x")
		for i, v := range vals {
			if gx.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// fill returns the n values f(0) … f(n-1).
func fill[T any](n int, f func(i int) T) []T {
	xs := make([]T, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

// TestRoundTripEveryEncoding makes the writer choose every chunk
// encoding — plain for each of the three types, gdict, gdict+rle,
// numeric rle and delta — proves from the footer census that it did,
// and then round-trips the cells, so every chunk decoder provably runs.
// The TPC-H golden suites never produce a numeric rle or a plain Int
// chunk.
func TestRoundTripEveryEncoding(t *testing.T) {
	const rows, groupRows = 512, 128
	cols := []struct {
		name string
		typ  relal.Type
		vec  *relal.Vector
		enc  byte
	}{
		// Any two values span more than 32 bits and no two are equal.
		{"plain_int", relal.Int, relal.IntsV(fill(rows, func(i int) int64 { return int64(i) << 40 })), encPlain},
		{"plain_float", relal.Float, relal.FloatsV(fill(rows, func(i int) float64 { return float64(i) + 0.5 })), encPlain},
		{"plain_str", relal.Str, relal.StrsV(fill(rows, func(i int) string { return fmt.Sprintf("s%04d", i) })), encPlain},
		// Five values changing every row: codes pack, runs do not.
		{"gdict", relal.Str, relal.EncodeDict(fill(rows, func(i int) string { return fmt.Sprintf("v%d", i%5) })), encGDict},
		// The same five values in runs of 64.
		{"gdict_rle", relal.Str, relal.EncodeDict(fill(rows, func(i int) string { return fmt.Sprintf("v%d", i/64%5) })), encGDictRLE},
		{"rle_int", relal.Int, relal.IntsV(fill(rows, func(i int) int64 { return int64(i / 64) })), encRLE},
		{"rle_float", relal.Float, relal.FloatsV(fill(rows, func(i int) float64 { return float64(i/64) * 0.25 })), encRLE},
		// +0 and -0 in runs of 64: equal as values, two runs per group
		// as the bit patterns the layout stores and the plan counts.
		{"rle_float_signed_zero", relal.Float, relal.FloatsV(fill(rows, func(i int) float64 { return math.Copysign(0, float64(1-i/64%2*2)) })), encRLE},
		// Distinct and dense: a one-byte frame of reference, no runs.
		{"delta", relal.Int, relal.IntsV(fill(rows, func(i int) int64 { return 1000 + int64(i) })), encDelta},
	}
	schema := make(relal.Schema, len(cols))
	vecs := make([]*relal.Vector, len(cols))
	for c, col := range cols {
		schema[c] = relal.Column{Name: col.name, Type: col.typ}
		vecs[c] = col.vec
	}
	tab := relal.NewTable("e", schema, vecs...)
	src, err := NewSource(tab, groupRows)
	if err != nil {
		t.Fatal(err)
	}
	for c, st := range src.EncodingStats() {
		if got := st.Chunks[cols[c].enc]; got != rows/groupRows {
			t.Errorf("%s: %d of %d chunks %s (census %v)",
				cols[c].name, got, rows/groupRows, EncNames[cols[c].enc], st.Chunks)
		}
	}
	if t.Failed() {
		t.FailNow() // a round trip over the wrong encodings proves nothing
	}
	got, _ := src.ScanTable(nil, nil)
	tablesEqual(t, got, tab)
}

// TestRunChunksThroughCache reads columns whose chunks are all rle, all
// gdict+rle, and a mix of run and flat encodings twice through one
// chunk cache — a miss per chunk, then a hit per chunk — with a column
// subset and a zone predicate that prunes a middle row group. The cache
// keeps run lists; what a scan returns is one entry per row either way.
func TestRunChunksThroughCache(t *testing.T) {
	const rows, groupRows = 512, 128
	runny := func(i int) bool { return i/groupRows%2 == 0 } // groups 0 and 2
	tab := relal.NewTable("e", relal.Schema{
		{Name: "z", Type: relal.Int},
		{Name: "rle", Type: relal.Int},
		{Name: "rle_f", Type: relal.Float},
		{Name: "gdict_rle", Type: relal.Str},
		{Name: "mix_int", Type: relal.Int},
		{Name: "mix_str", Type: relal.Str},
	},
		// Group 1 holds 50s, the others 5..7: IntBetween(z, 0, 10) prunes it.
		relal.IntsV(fill(rows, func(i int) int64 {
			if i/groupRows == 1 {
				return 50
			}
			return 5 + int64(i%3)
		})),
		relal.IntsV(fill(rows, func(i int) int64 { return int64(i / 64) })),
		relal.FloatsV(fill(rows, func(i int) float64 { return float64(i/64) * 0.25 })),
		relal.EncodeDict(fill(rows, func(i int) string { return fmt.Sprintf("v%d", i/64%5) })),
		relal.IntsV(fill(rows, func(i int) int64 {
			if runny(i) {
				return int64(i / 64)
			}
			return 1000 + int64(i)
		})),
		relal.EncodeDict(fill(rows, func(i int) string {
			if runny(i) {
				return fmt.Sprintf("v%d", i/64%5)
			}
			return fmt.Sprintf("v%d", i%5)
		})))
	src, err := NewSource(tab, groupRows)
	if err != nil {
		t.Fatal(err)
	}
	census := src.EncodingStats()
	for c, want := range map[int][numEncs]int{
		1: {encRLE: 4},
		2: {encRLE: 4},
		3: {encGDictRLE: 4},
		4: {encRLE: 2, encDelta: 2},
		5: {encGDictRLE: 2, encGDict: 2},
	} {
		if census[c].Chunks != want {
			t.Fatalf("%s: chunk census %v, fixture wants %v", tab.Schema[c].Name, census[c].Chunks, want)
		}
	}
	cache := NewChunkCache(1 << 20)
	src.SetCache(cache)
	cols := []string{"gdict_rle", "mix_int", "rle", "mix_str", "rle_f"}
	pred := relal.ZonePredicate{relal.IntBetween("z", 0, 10)}
	e := &relal.Exec{}
	want := e.Project(e.Filter(tab, func(i int) bool { return i/groupRows != 1 }), cols...)
	const chunks = 5 * 3 // requested columns × surviving groups

	var used int64
	for pass, wantHits := range []int{0, chunks} {
		got, stats, err := src.TryScan(cols, pred)
		if err != nil {
			t.Fatal(err)
		}
		if stats.GroupsSkipped != 1 || stats.CacheHits != wantHits || stats.CacheMisses != chunks-wantHits {
			t.Fatalf("pass %d: %d groups skipped, %d hits, %d misses; want 1, %d, %d",
				pass, stats.GroupsSkipped, stats.CacheHits, stats.CacheMisses, wantHits, chunks-wantHits)
		}
		sameRows(t, got, want)
		for c, v := range got.Cols {
			if cells := len(v.Ints) + len(v.Floats) + len(v.Dict); cells != want.NumRows() {
				t.Fatalf("pass %d: column %s holds %d entries for %d rows", pass, cols[c], cells, want.NumRows())
			}
		}
		if pass == 0 {
			used = cache.UsedBytes()
		} else if cache.UsedBytes() != used || cache.Len() != chunks {
			t.Fatalf("cache went from %d B to %d B (%d chunks) on an all-hit read", used, cache.UsedBytes(), cache.Len())
		}
	}
}

func TestTypeMismatchRejectedAtConstruction(t *testing.T) {
	// With typed columnar tables a mistyped cell can no longer reach the
	// writer: AppendRow panics at construction time instead of Write
	// returning an error later.
	tb := relal.NewTable("b", relal.Schema{{Name: "x", Type: relal.Int}})
	defer func() {
		if recover() == nil {
			t.Error("mistyped AppendRow should panic")
		}
	}()
	relal.AppendRow(tb, relal.Row{"not an int"})
}

func TestReadColsSubsetRoundTrip(t *testing.T) {
	src := sampleTable(1000)
	data, err := NewWriter(128).Write(src)
	if err != nil {
		t.Fatal(err)
	}
	// Request a subset in non-schema order: result schema must follow
	// the request.
	got, stats, err := ReadCols(data, src.Schema, "t", []string{"s", "k"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Schema) != 2 || got.Schema[0].Name != "s" || got.Schema[1].Name != "k" {
		t.Fatalf("schema = %v", got.Schema.Names())
	}
	if got.NumRows() != 1000 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	ks := got.IntCol("k")
	ss := got.StrCol("s")
	for i := 0; i < got.NumRows(); i++ {
		if ks.Get(i) != int64(i) || ss.Get(i) != fmt.Sprintf("row-%d", i) {
			t.Fatalf("row %d = (%d, %q)", i, ks.Get(i), ss.Get(i))
		}
	}
	if stats.BytesSkipped == 0 {
		t.Error("column pruning must skip the v column's chunks")
	}
	// Full read accounts the same total bytes, all read.
	_, full, err := ReadCols(data, src.Schema, "t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.BytesSkipped != 0 {
		t.Errorf("full read skipped %d bytes", full.BytesSkipped)
	}
	if full.BytesRead != stats.BytesRead+stats.BytesSkipped {
		t.Errorf("byte accounting drifts: full %d vs subset %d+%d",
			full.BytesRead, stats.BytesRead, stats.BytesSkipped)
	}
}

func TestReadColsUnknownColumn(t *testing.T) {
	src := sampleTable(10)
	data, _ := NewWriter(0).Write(src)
	if _, _, err := ReadCols(data, src.Schema, "t", []string{"nope"}, nil); err == nil {
		t.Error("unknown requested column should fail")
	}
}

func TestZoneMapPruning(t *testing.T) {
	src := sampleTable(1000) // k ascending 0..999, so zone maps are tight
	data, err := NewWriter(100).Write(src)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadCols(data, src.Schema, "t", []string{"k"},
		relal.ZonePredicate{relal.IntBetween("k", 250, 349)})
	if err != nil {
		t.Fatal(err)
	}
	// The [250, 349] range straddles the [200, 299] and [300, 399]
	// groups; only those two survive.
	if got.NumRows() != 200 {
		t.Errorf("rows = %d, want 200 (two surviving groups)", got.NumRows())
	}
	if stats.GroupsRead != 2 || stats.GroupsSkipped != 8 {
		t.Errorf("groups read/skipped = %d/%d, want 2/8", stats.GroupsRead, stats.GroupsSkipped)
	}
	k := got.IntCol("k")
	if k.Get(0) != 200 || k.Get(199) != 399 {
		t.Errorf("surviving groups span [%d, %d], want [200, 399]", k.Get(0), k.Get(199))
	}
}

func TestAllGroupsPruned(t *testing.T) {
	src := sampleTable(500)
	data, err := NewWriter(64).Write(src)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadCols(data, src.Schema, "t", []string{"k", "v"},
		relal.ZonePredicate{relal.IntBetween("k", 10_000, math.MaxInt64)})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", got.NumRows())
	}
	if stats.GroupsRead != 0 || stats.BytesRead != 0 {
		t.Errorf("all groups should prune: read %d groups, %d bytes", stats.GroupsRead, stats.BytesRead)
	}
	if stats.GroupsSkipped == 0 || stats.BytesSkipped == 0 {
		t.Error("skipped accounting must cover the whole file")
	}
	// The empty result still supports typed access.
	if got.IntCol("k").Len() != 0 {
		t.Error("empty pruned table must have empty typed columns")
	}
}

func TestSingleRowGroups(t *testing.T) {
	src := sampleTable(7)
	data, err := NewWriter(1).Write(src)
	if err != nil {
		t.Fatal(err)
	}
	zones, err := ZoneMaps(data, src.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 7 {
		t.Fatalf("groups = %d, want 7", len(zones))
	}
	for g, zs := range zones {
		if zs[0].IntMin != int64(g) || zs[0].IntMax != int64(g) {
			t.Errorf("group %d k zone = [%d, %d]", g, zs[0].IntMin, zs[0].IntMax)
		}
	}
	got, stats, err := ReadCols(data, src.Schema, "t", nil,
		relal.ZonePredicate{relal.IntEq("k", 3)})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 || got.IntCol("k").Get(0) != 3 {
		t.Errorf("rows = %d", got.NumRows())
	}
	if stats.GroupsSkipped != 6 {
		t.Errorf("skipped %d groups, want 6", stats.GroupsSkipped)
	}
}

func TestEmptyTableReadCols(t *testing.T) {
	src := sampleTable(0)
	data, err := NewWriter(0).Write(src)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadCols(data, src.Schema, "t", []string{"v"},
		relal.ZonePredicate{relal.FloatAtMost("v", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || stats.GroupsRead != 0 || stats.GroupsSkipped != 0 {
		t.Errorf("empty table: rows=%d stats=%+v", got.NumRows(), stats)
	}
}

func TestStrZoneEdgeCases(t *testing.T) {
	// Empty strings and common prefixes: "" is a legitimate minimum and
	// "app" < "apple" lexicographically, so a predicate between the two
	// must keep the group.
	tb := relal.NewTable("s", relal.Schema{{Name: "x", Type: relal.Str}},
		relal.StrsV([]string{"", "app", "apple", "applesauce"}))
	data, err := NewWriter(0).Write(tb)
	if err != nil {
		t.Fatal(err)
	}
	zones, err := ZoneMaps(data, tb.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if zones[0][0].StrMin != "" || zones[0][0].StrMax != "applesauce" {
		t.Errorf("zone = [%q, %q]", zones[0][0].StrMin, zones[0][0].StrMax)
	}
	for _, tc := range []struct {
		pred relal.ZoneCond
		keep bool
	}{
		{relal.StrEq("x", ""), true},     // empty string is in range
		{relal.StrEq("x", "appl"), true}, // prefix between app and apple
		{relal.StrAtLeast("x", "applesauce"), true},
		{relal.StrAtLeast("x", "applesauces"), false}, // past the max
		{relal.StrAtMost("x", ""), true},              // min "" qualifies
		{relal.StrBetween("x", "b", "c"), false},
	} {
		got, _, err := ReadCols(data, tb.Schema, "s", nil, relal.ZonePredicate{tc.pred})
		if err != nil {
			t.Fatal(err)
		}
		if kept := got.NumRows() > 0; kept != tc.keep {
			t.Errorf("pred %+v: kept=%v, want %v", tc.pred, kept, tc.keep)
		}
	}
}

func TestSourceScanMatchesRead(t *testing.T) {
	src := sampleTable(300)
	s, err := NewSource(src, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.SrcName() != "t" || len(s.SrcSchema()) != 3 {
		t.Errorf("source identity wrong: %s %v", s.SrcName(), s.SrcSchema().Names())
	}
	got, stats := s.ScanTable([]string{"k"}, relal.ZonePredicate{relal.IntBetween("k", math.MinInt64, 99)})
	if got.NumRows() != 128 { // two 64-row groups survive (0..63, 64..127)
		t.Errorf("rows = %d, want 128", got.NumRows())
	}
	if stats.GroupsSkipped != 3 {
		t.Errorf("skipped %d groups, want 3", stats.GroupsSkipped)
	}
}

// TestChunkPlanMatchesFile holds the writer and the size model to one
// decision: for every chunk of every TPC-H table, the footer's enc byte
// is relal.PlanChunk's, and the plan's modeled bytes are exactly the
// length of the payload the writer laid down (before gzip).
func TestChunkPlanMatchesFile(t *testing.T) {
	db := tpch.Generate(tpch.GenConfig{SF: 0.002, Seed: 1, Random64: true})
	for _, name := range tpch.TableNames {
		tab := db.Table(name).Compacted()
		for _, groupRows := range []int{256, 4096} {
			data, err := NewWriter(groupRows).Write(tab)
			if err != nil {
				t.Fatal(err)
			}
			p, err := parse(data, tab.Schema)
			if err != nil {
				t.Fatal(err)
			}
			for g, gr := range p.groups {
				lo, off := g*groupRows, gr.offset
				for c, v := range tab.Cols {
					plan := relal.PlanChunk(v, lo, lo+gr.rows)
					raw, err := inflateChunk(data, off, gr.compLens[c])
					if err != nil {
						t.Fatal(err)
					}
					if gr.encs[c] != plan.Enc || int64(len(raw)) != plan.Bytes {
						t.Errorf("%s.%s group %d (%d rows/group): file enc %s payload %d B, plan enc %s %d B",
							name, tab.Schema[c].Name, g, groupRows,
							EncNames[gr.encs[c]], len(raw), EncNames[plan.Enc], plan.Bytes)
					}
					off += int64(gr.compLens[c])
				}
			}
		}
	}
}
