package rcfile

import (
	"fmt"
	"testing"

	"elephants/internal/relal"
)

// dictGroupRows is the row-group size the dict tests encode with: big
// enough that a handful of distinct values per group beats gzip'd plain
// strings (gzip already LZ-dedups repetition, so dictionaries only pay
// at realistic group sizes), small enough that tests stay multi-group.
const dictGroupRows = 2048

// dictSample builds the same low-cardinality column twice: raw strings
// and dictionary-encoded. Each row group draws from a shifted
// low-cardinality slice of the value space, so different row groups see
// different (but always small) local dictionaries — the adaptive writer
// keeps them dict-encoded and reads exercise the union-merge.
func dictSample(rows, card int) (raw, dict *relal.Table) {
	xs := make([]string, rows)
	ks := make([]int64, rows)
	for i := range xs {
		xs[i] = fmt.Sprintf("val-%03d", (i/dictGroupRows*3+i%6)%card)
		ks[i] = int64(i)
	}
	sch := relal.Schema{
		{Name: "k", Type: relal.Int},
		{Name: "s", Type: relal.Str},
	}
	raw = relal.NewTable("d", sch, relal.IntsV(ks), relal.StrsV(xs))
	dict = relal.NewTable("d", sch, relal.IntsV(ks), relal.EncodeDict(xs))
	return raw, dict
}

func tablesEqual(t *testing.T, a, b *relal.Table) {
	t.Helper()
	ra, rb := relal.RowsOf(a), relal.RowsOf(b)
	if len(ra) != len(rb) {
		t.Fatalf("rows %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		for c := range ra[i] {
			if ra[i][c] != rb[i][c] {
				t.Fatalf("cell (%d,%d): %v vs %v", i, c, ra[i][c], rb[i][c])
			}
		}
	}
}

// TestDictChunkRoundTrip: a dict-encoded column survives the RCF3
// round trip bit-for-bit, across multiple row groups with differing
// group-local dictionaries, and comes back still dictionary-encoded.
func TestDictChunkRoundTrip(t *testing.T) {
	raw, dict := dictSample(4*dictGroupRows+500, 24)
	data, err := NewWriter(dictGroupRows).Write(dict)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadCols(data, dict.Schema, "d", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, got, raw)
	sc := got.Cols[got.Schema.Col("s")]
	if !sc.IsDict() {
		t.Error("RCF3 read must return a dict vector for dict chunks, not rebuilt strings")
	}
}

// TestDictChunkSingleGroup covers the same-dictionary fast path (one
// group, codes concatenate untouched).
func TestDictChunkSingleGroup(t *testing.T) {
	raw, dict := dictSample(dictGroupRows, 5)
	data, err := NewWriter(0).Write(dict)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadCols(data, dict.Schema, "d", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, got, raw)
	if !got.Cols[1].IsDict() {
		t.Error("single-group dict read must stay dict-encoded")
	}
}

// TestDictFileSmallerThanRaw: the point of the encoding — the encoded
// file must be strictly smaller than the raw-string encoding of the
// same low-cardinality data.
func TestDictFileSmallerThanRaw(t *testing.T) {
	raw, dict := dictSample(2*dictGroupRows, 7)
	rawData, err := NewWriter(dictGroupRows).Write(raw)
	if err != nil {
		t.Fatal(err)
	}
	dictData, err := NewWriter(dictGroupRows).Write(dict)
	if err != nil {
		t.Fatal(err)
	}
	if len(dictData) >= len(rawData) {
		t.Errorf("dict file %d B, want < raw %d B", len(dictData), len(rawData))
	}
	t.Logf("7-value column over %d rows: raw %d B, dict %d B (%.0f%%)",
		2*dictGroupRows, len(rawData), len(dictData), 100*float64(len(dictData))/float64(len(rawData)))
}

// TestDictZoneMapsPruneAndCarryCodes: RCF3 zone maps on dict chunks
// still prune by string bounds and expose the min/max codes.
func TestDictZoneMapsPruneAndCarryCodes(t *testing.T) {
	// Ordered low-cardinality data: each group holds two of the sixteen
	// values, so an equality predicate prunes most groups and every
	// chunk stays dict-encoded under the adaptive writer.
	rows := 16 * dictGroupRows / 2
	xs := make([]string, rows)
	for i := range xs {
		xs[i] = fmt.Sprintf("val-%03d", i/(dictGroupRows/2))
	}
	dict := relal.NewTable("d", relal.Schema{{Name: "k", Type: relal.Int}, {Name: "s", Type: relal.Str}},
		relal.IntsV(make([]int64, rows)), relal.EncodeDict(xs))
	data, err := NewWriter(dictGroupRows).Write(dict)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parse(data, dict.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for g, gr := range p.groups {
		z := gr.zones[1]
		if !z.HasCodes {
			t.Fatalf("group %d: dict zone missing codes", g)
		}
		if z.CodeMin > z.CodeMax || z.StrMin > z.StrMax {
			t.Fatalf("group %d: inverted zone %+v", g, z)
		}
	}
	got, stats, err := ReadCols(data, dict.Schema, "d", []string{"s"},
		relal.ZonePredicate{relal.StrEq("s", "val-005")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsSkipped == 0 {
		t.Error("string predicate should prune dict-chunk groups via zone maps")
	}
	found := false
	sv := got.StrCol("s")
	for i := 0; i < got.NumRows(); i++ {
		if sv.Get(i) == "val-005" {
			found = true
		}
	}
	if !found {
		t.Error("pruned read lost the matching value")
	}
}

// TestDictSubsetReadStaysDict: projecting just the dict column through
// ReadCols keeps it encoded and accounts skipped bytes for the rest.
func TestDictSubsetReadStaysDict(t *testing.T) {
	raw, dict := dictSample(3*dictGroupRows, 9)
	data, err := NewWriter(dictGroupRows).Write(dict)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadCols(data, dict.Schema, "d", []string{"s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cols[0].IsDict() {
		t.Error("subset read must stay dict-encoded")
	}
	if stats.BytesSkipped == 0 {
		t.Error("unrequested k column should be skipped")
	}
	want := raw.StrCol("s")
	gv := got.StrCol("s")
	for i := 0; i < got.NumRows(); i++ {
		if gv.Get(i) != want.Get(i) {
			t.Fatalf("row %d: %q vs %q", i, gv.Get(i), want.Get(i))
		}
	}
}

// TestMixedDictAndRawColumns: a table with one dict and one raw Str
// column round-trips both faithfully.
func TestMixedDictAndRawColumns(t *testing.T) {
	rows := 2 * dictGroupRows
	ds := make([]string, rows)
	rs := make([]string, rows)
	for i := range ds {
		ds[i] = fmt.Sprintf("flag-%d", i%3)
		rs[i] = fmt.Sprintf("unique-comment-%d", i)
	}
	sch := relal.Schema{
		{Name: "f", Type: relal.Str},
		{Name: "c", Type: relal.Str},
	}
	src := relal.NewTable("m", sch, relal.EncodeDict(ds), relal.StrsV(rs))
	data, err := NewWriter(dictGroupRows).Write(src)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadCols(data, sch, "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, got, src)
	if !got.Cols[0].IsDict() || got.Cols[1].IsDict() {
		t.Errorf("encodings flipped: f dict=%v, c dict=%v",
			got.Cols[0].IsDict(), got.Cols[1].IsDict())
	}
}
