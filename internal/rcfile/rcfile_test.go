package rcfile

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
	got, _, err := ReadCols(data, src.Schema, "t", nil, nil)
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
	got, _, err := ReadCols(data, f.Schema, "t", nil, nil)
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
	got, _, err := ReadCols(data, src.Schema, "t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", got.NumRows())
	}
}

func TestBadInputs(t *testing.T) {
	if _, _, err := ReadCols([]byte("nope"), nil, "t", nil, nil); err == nil {
		t.Error("bad magic should fail")
	}
	src := sampleTable(10)
	data, _ := NewWriter(0).Write(src)
	if _, _, err := ReadCols(data, src.Schema[:2], "t", nil, nil); err == nil {
		t.Error("schema mismatch should fail")
	}
	if _, _, err := ReadCols(data[:len(data)-5], src.Schema, "t", nil, nil); err == nil {
		t.Error("truncated file should fail")
	}
}

func TestCompressionOnTPCH(t *testing.T) {
	li := tpch.Generate(tpch.GenConfig{SF: 0.002, Seed: 1, Random64: true}).Lineitem
	data, err := NewWriter(0).Write(li)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(data)) / float64(li.AvgRowBytes()*li.NumRows())
	// Columnar gzip on TPC-H achieves heavy compression; the Hive cost
	// model assumes ~0.115. Accept a broad band, but it must compress.
	if ratio >= 0.7 {
		t.Errorf("lineitem compression ratio = %.3f, expected strong compression", ratio)
	}
	if ratio <= 0.01 {
		t.Errorf("compression ratio = %.3f suspiciously low", ratio)
	}

	// The storage budget of gzip-only-where-it-halves: all eight SF 0.01
	// tables (seed 1, 4096-row groups) may take at most 10% more bytes
	// than the 1,984,193 the always-gzip RCF6 writer took.
	const rcf6Bytes = 1_984_193
	db := tpch.Generate(tpch.GenConfig{SF: 0.01, Seed: 1, Random64: true})
	total := 0
	for _, name := range tpch.TableNames {
		data, err := NewWriter(4096).Write(db.Table(name))
		if err != nil {
			t.Fatal(err)
		}
		total += len(data)
	}
	if limit := rcf6Bytes * 11 / 10; total > limit {
		t.Errorf("SF 0.01 tables take %d B, budget %d B (RCF6 took %d B)", total, limit, rcf6Bytes)
	}
	t.Logf("SF 0.01 tables: %d B, %+.1f%% on RCF6's %d B", total, 100*(float64(total)/rcf6Bytes-1), rcf6Bytes)
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
		got, _, err := ReadCols(data, src.Schema, "p", nil, nil)
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

// noise is a fixed pseudo-random 64-bit value per i (splitmix64's
// finalizer): bytes gzip cannot shrink.
func noise(i int) uint64 {
	x := uint64(i+1) * 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// alternate returns rows values, pattern(i) in even row groups of
// groupRows and noisy(i) in odd ones.
func alternate[T any](rows, groupRows int, pattern, noisy func(i int) T) []T {
	return fill(rows, func(i int) T {
		if i/groupRows%2 == 0 {
			return pattern(i)
		}
		return noisy(i)
	})
}

// TestRoundTripEveryEncoding makes the writer choose every chunk
// encoding — plain for each of the three types, gdict, gdict+rle, delta
// and decimal — each in both stored forms: every column alternates a
// patterned row group, whose payload gzip more than halves, with a noisy
// one, whose payload it cannot. It proves from the footer census that
// every encoding landed both deflated and stored, then round-trips the
// cells, so every chunk decoder provably runs on file bytes and on
// inflated ones.
func TestRoundTripEveryEncoding(t *testing.T) {
	const groupRows, groups = 1024, 4
	const rows = groupRows * groups
	cols := []struct {
		name string
		typ  relal.Type
		vec  *relal.Vector
		enc  byte
	}{
		// Any two values span more than 32 bits.
		{"plain_int", relal.Int, relal.IntsV(alternate(rows, groupRows,
			func(i int) int64 { return int64(i) << 40 },
			func(i int) int64 { return int64(noise(i)) })), encPlain},
		// Never a whole number of 10^-4 units.
		{"plain_float", relal.Float, relal.FloatsV(alternate(rows, groupRows,
			func(i int) float64 { return float64(i%8) + math.Pi },
			func(i int) float64 { return float64(noise(i)>>11) * 0x1p-53 })), encPlain},
		{"plain_str", relal.Str, relal.StrsV(alternate(rows, groupRows,
			func(i int) string { return fmt.Sprintf("s%04d", i%100) },
			func(i int) string { return string(binary.LittleEndian.AppendUint64(nil, noise(i))) })), encPlain},
		// 200 values: a one-byte code per row, and no runs.
		{"gdict", relal.Str, relal.EncodeDict(alternate(rows, groupRows,
			func(i int) string { return fmt.Sprintf("v%03d", i%5) },
			func(i int) string { return fmt.Sprintf("v%03d", noise(i)%200) })), encGDict},
		// Runs of 16 cycling through five values; four runs a group.
		{"gdict_rle", relal.Str, relal.EncodeDict(alternate(rows, groupRows,
			func(i int) string { return fmt.Sprintf("v%d", i/16%5) },
			func(i int) string { return fmt.Sprintf("v%d", i/256%5) })), encGDictRLE},
		// Dense spans: a one-byte frame of reference.
		{"delta", relal.Int, relal.IntsV(alternate(rows, groupRows,
			func(i int) int64 { return 1000 + int64(i%4) },
			func(i int) int64 { return 1000 + int64(noise(i)%250) })), encDelta},
		{"decimal", relal.Float, relal.FloatsV(alternate(rows, groupRows,
			func(i int) float64 { return float64(i%7) / 100 },
			func(i int) float64 { return float64(noise(i)%250) / 100 })), encDecimal},
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
	covered := map[byte]bool{}
	for c, st := range src.EncodingStats() {
		enc := cols[c].enc
		covered[enc] = true
		if st.Chunks[enc] != groups || st.Deflated[enc] != groups/2 {
			t.Errorf("%s: %d of %d chunks %s, %d of them deflated, want %d (census %v, deflated %v)",
				cols[c].name, st.Chunks[enc], groups, EncNames[enc], st.Deflated[enc], groups/2, st.Chunks, st.Deflated)
		}
	}
	for enc, name := range EncNames {
		if name != "" && !covered[byte(enc)] {
			t.Errorf("no column covers encoding %s", name)
		}
	}
	if t.Failed() {
		t.FailNow() // a round trip over the wrong encodings proves nothing
	}
	got, _ := src.ScanTable(nil, nil)
	tablesEqual(t, got, tab)
}

// TestDecimalChunkExact pins which Float chunks pack as decimal: whole
// numbers of 10^-e units for the smallest e in 0…4, decided bit for bit,
// so one value that is not — NaN, −0, ±Inf, a subnormal, 0.1+0.2, a
// magnitude past 2^53 units, an acctbal-style difference — keeps the
// whole chunk plain. Every cell round-trips bit for bit either way.
func TestDecimalChunkExact(t *testing.T) {
	const rows = 64
	cents := func(i int) float64 { return float64(i*37-900) / 100 }
	with := func(x float64) []float64 { // cents, one cell replaced by x
		xs := fill(rows, cents)
		xs[rows/2] = x
		return xs
	}
	tenth, fifth := 0.1, 0.2 // variables: a constant 0.1+0.2 is exactly 0.3
	cases := []struct {
		name string
		xs   []float64
		exp  int // -1: stays plain
	}{
		{"cents", fill(rows, cents), 2},
		{"integers", fill(rows, func(i int) float64 { return float64(i*3 - 50) }), 0},
		{"tenths_and_thousandths", fill(rows, func(i int) float64 {
			if i%2 == 0 {
				return float64(i) / 10
			}
			return float64(i) / 1000
		}), 3},
		{"e4", fill(rows, func(i int) float64 { return float64(i*7+1) / 10000 }), 4},
		{"nan", with(math.NaN()), -1},
		{"negative_zero", with(math.Copysign(0, -1)), -1},
		{"plus_inf", with(math.Inf(1)), -1},
		{"minus_inf", with(math.Inf(-1)), -1},
		{"subnormal", with(5e-324), -1},
		{"inexact_sum", with(tenth + fifth), -1},
		{"huge", with(1e300), -1},
		{"acctbal", fill(rows, func(i int) float64 { return float64(i*1571%1000000)/100 - 999.99 }), -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			schema := relal.Schema{{Name: "x", Type: relal.Float}}
			tab := relal.NewTable("d", schema, relal.FloatsV(tc.xs))
			plan := relal.PlanChunk(tab.Cols[0], 0, rows)
			wantEnc := encDecimal
			if tc.exp < 0 {
				wantEnc = encPlain
			}
			if plan.Enc != wantEnc || (tc.exp >= 0 && plan.Exp != tc.exp) {
				t.Fatalf("plan %s at e=%d, want %s at e=%d", EncNames[plan.Enc], plan.Exp, EncNames[wantEnc], tc.exp)
			}
			src, err := NewSource(tab, rows)
			if err != nil {
				t.Fatal(err)
			}
			if got := src.EncodingStats()[0].Chunks[wantEnc]; got != 1 {
				t.Fatalf("file holds %d %s chunks, want 1", got, EncNames[wantEnc])
			}
			got, _ := src.ScanTable(nil, nil)
			for i, x := range got.Cols[0].Floats {
				if math.Float64bits(x) != math.Float64bits(tc.xs[i]) {
					t.Fatalf("cell %d: %v (%#x), wrote %v (%#x)", i, x, math.Float64bits(x), tc.xs[i], math.Float64bits(tc.xs[i]))
				}
			}
		})
	}
}

// TestRunChunksThroughCache reads a column whose chunks are all
// gdict+rle, one that mixes run and flat code chunks, and a flat numeric
// column twice through one chunk cache — a miss per chunk, then a hit
// per chunk — with a column subset and a zone predicate that prunes a
// middle row group. The cache keeps run lists; what a scan returns is
// one entry per row either way.
func TestRunChunksThroughCache(t *testing.T) {
	const rows, groupRows = 512, 128
	runny := func(i int) bool { return i/groupRows%2 == 0 } // groups 0 and 2
	tab := relal.NewTable("e", relal.Schema{
		{Name: "z", Type: relal.Int},
		{Name: "k", Type: relal.Int},
		{Name: "gdict_rle", Type: relal.Str},
		{Name: "mix_str", Type: relal.Str},
	},
		// Group 1 holds 50s, the others 5..7: IntBetween(z, 0, 10) prunes it.
		relal.IntsV(fill(rows, func(i int) int64 {
			if i/groupRows == 1 {
				return 50
			}
			return 5 + int64(i%3)
		})),
		relal.IntsV(fill(rows, func(i int) int64 { return 1000 + int64(i) })),
		relal.EncodeDict(fill(rows, func(i int) string { return fmt.Sprintf("v%d", i/64%5) })),
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
		1: {encDelta: 4},
		2: {encGDictRLE: 4},
		3: {encGDictRLE: 2, encGDict: 2},
	} {
		if census[c].Chunks != want {
			t.Fatalf("%s: chunk census %v, fixture wants %v", tab.Schema[c].Name, census[c].Chunks, want)
		}
	}
	cache := NewChunkCache(1 << 20)
	src.SetCache(cache)
	cols := []string{"gdict_rle", "k", "mix_str"}
	pred := relal.ZonePredicate{relal.IntBetween("z", 0, 10)}
	e := &relal.Exec{}
	want := e.Project(e.Filter(tab, func(i int) bool { return i/groupRows != 1 }), cols...)
	const chunks = 3 * 3 // requested columns × surviving groups

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
	got.IntCol("k") // the empty result still supports typed access
	if got.Cols[0].Len() != 0 {
		t.Error("empty pruned table must have empty typed columns")
	}
}

func TestSingleRowGroups(t *testing.T) {
	src := sampleTable(7)
	data, err := NewWriter(1).Write(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parse(data, src.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.groups) != 7 {
		t.Fatalf("groups = %d, want 7", len(p.groups))
	}
	for g, gr := range p.groups {
		if z := gr.zones[0]; z.IntMin != int64(g) || z.IntMax != int64(g) {
			t.Errorf("group %d k zone = [%d, %d]", g, z.IntMin, z.IntMax)
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
		relal.ZonePredicate{relal.FloatLess("v", 1)})
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
	p, err := parse(data, tb.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if z := p.groups[0].zones[0]; z.StrMin != "" || z.StrMax != "applesauce" {
		t.Errorf("zone = [%q, %q]", z.StrMin, z.StrMax)
	}
	for _, tc := range []struct {
		pred relal.ZoneCond
		keep bool
	}{
		{relal.StrEq("x", ""), true},                  // empty string is in range
		{relal.StrEq("x", "appl"), true},              // prefix between app and apple
		{relal.StrGreater("x", "applesauce"), true},   // the closed hull holds the max
		{relal.StrGreater("x", "applesauces"), false}, // past the max
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

// TestWriterBytesGolden pins the writer's output for every TPC-H table
// (SF 0.002, seed 1, 4096-row groups) to an FNV-64a hash of the file
// bytes: a change to chunk planning, a chunk layout, the footer or the
// trailer that alters any file the engine writes for TPC-H fails here.
// The hashes are of RCF7 files; the move from RCF6 (gzip only where it
// halves a chunk, decimal floats) was the deliberate change that last
// set them.
func TestWriterBytesGolden(t *testing.T) {
	want := map[string]uint64{
		"region":   0x85682b86e0b861cf,
		"nation":   0xfbef1244ffdec773,
		"supplier": 0x094a4c05661e4527,
		"customer": 0x1bc97aa9e1ec5ad7,
		"part":     0x45ee2c2630c25645,
		"partsupp": 0xd228ea5f3834caba,
		"orders":   0x6c1c6576d1b74e1a,
		"lineitem": 0x2c2529d48d6a8ef7,
	}
	db := tpch.Generate(tpch.GenConfig{SF: 0.002, Seed: 1, Random64: true})
	for _, name := range tpch.TableNames {
		data, err := NewWriter(4096).Write(db.Table(name))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if got := h.Sum64(); got != want[name] {
			t.Errorf("%s: %d B hash to %#016x, want %#016x", name, len(data), got, want[name])
		}
	}
}

// TestChunkPlanMatchesFile holds the writer and the size model to one
// decision: for every chunk of every TPC-H table, the footer's enc byte
// is relal.PlanChunk's, and the plan's modeled bytes are exactly the
// length of the payload the writer laid down — the stored bytes, or
// what they inflate to when the 0x80 bit says they are deflated.
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
					raw := data[off : off+int64(gr.compLens[c])]
					if gr.deflated[c] {
						buf, err := inflate(raw)
						if err != nil {
							t.Fatal(err)
						}
						raw = *buf
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
