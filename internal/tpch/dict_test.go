package tpch

import (
	"os"
	"testing"

	"elephants/internal/rcfile"
	"elephants/internal/relal"
)

// TestDictColumnsAreEncoded: a nil GenConfig.DictColumns dictionary-
// encodes exactly DefaultDictColumns, and an empty non-nil one — the
// raw-strings spelling — leaves every Str column raw.
func TestDictColumnsAreEncoded(t *testing.T) {
	db := Generate(GenConfig{SF: 0.002, Seed: 1, Random64: true})
	isDefault := make(map[string]bool, len(DefaultDictColumns))
	for _, c := range DefaultDictColumns {
		isDefault[c] = true
	}
	raw := Generate(GenConfig{SF: 0.002, Seed: 1, Random64: true, DictColumns: []string{}})
	strCols := 0
	for _, name := range TableNames {
		tab, rawTab := db.Table(name), raw.Table(name)
		for ci, c := range tab.Schema {
			if c.Type != relal.Str {
				continue
			}
			strCols++
			if got := tab.Cols[ci].IsDict(); got != isDefault[c.Name] {
				t.Errorf("nil DictColumns: %s.%s dict = %v, want %v", name, c.Name, got, isDefault[c.Name])
			}
			if rawTab.Cols[ci].IsDict() {
				t.Errorf("empty DictColumns: %s.%s is dictionary-encoded, want raw", name, c.Name)
			}
		}
	}
	if strCols == 0 {
		t.Fatal("no Str columns checked")
	}
}

// TestDictOffMatchesGolden proves encoding transparency from the other
// side: with dictionary encoding disabled the snapshot is the same
// bytes, so the committed golden file pins both representations.
func TestDictOffMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tpch_golden.txt")
	if err != nil {
		t.Skip("golden file missing")
	}
	db := Generate(GenConfig{SF: goldenSF, Seed: 1, Random64: true, DictColumns: []string{}})
	diffGolden(t, goldenSnapshotOf(db), string(want))
}

// TestDictGoldenOverRCFileParallel is the acceptance matrix for the
// dict pipeline: dictionary-encoded generation, RCF3-encoded sources
// (dict chunks, group-local dictionaries, zone maps), and a
// multi-worker morsel pool must reproduce the golden snapshot
// byte-for-byte.
func TestDictGoldenOverRCFileParallel(t *testing.T) {
	want, err := os.ReadFile("testdata/tpch_golden.txt")
	if err != nil {
		t.Skip("golden file missing")
	}
	db := rcfileDB(t, goldenSF, 1024)
	li := db.Lineitem
	if !li.Cols[li.Schema.Col("l_returnflag")].IsDict() {
		t.Fatal("precondition: dict generation should be on by default")
	}
	old := DefaultWorkers
	DefaultWorkers = 3
	defer func() { DefaultWorkers = old }()
	diffGolden(t, goldenSnapshotOf(db), string(want))
}

// TestDictShrinksRCFileLineitem: the on-disk acceptance criterion —
// encoding the same generated lineitem with and without dictionaries,
// the dict file must be strictly smaller.
func TestDictShrinksRCFileLineitem(t *testing.T) {
	on := Generate(GenConfig{SF: 0.005, Seed: 1, Random64: true})
	off := Generate(GenConfig{SF: 0.005, Seed: 1, Random64: true, DictColumns: []string{}})
	onBytes := encodeBytes(t, on.Lineitem)
	offBytes := encodeBytes(t, off.Lineitem)
	if onBytes >= offBytes {
		t.Errorf("dict lineitem %d B, want < raw %d B", onBytes, offBytes)
	}
	t.Logf("RCFile lineitem: raw %d B, dict %d B (%.1f%%)",
		offBytes, onBytes, 100*float64(onBytes)/float64(offBytes))
}

func encodeBytes(t *testing.T, tab *relal.Table) int {
	t.Helper()
	src, err := rcfile.NewSource(tab, 2048)
	if err != nil {
		t.Fatal(err)
	}
	return src.Bytes()
}

// TestDictShrinksScanAccounting: the cost models consume the scan byte
// accounting, so Q1's modeled lineitem bytes must drop under dict
// encoding the same way the file does.
func TestDictShrinksScanAccounting(t *testing.T) {
	run := func(dictCols []string) int64 {
		db := Generate(GenConfig{SF: 0.005, Seed: 1, Random64: true, DictColumns: dictCols})
		_, log := RunQuery(1, db)
		read, skipped := lineitemScanStats(log)
		return read + skipped
	}
	on, off := run(nil), run([]string{})
	if on >= off {
		t.Errorf("dict scan accounting %d B, want < raw %d B", on, off)
	}
}
