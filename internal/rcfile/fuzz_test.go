package rcfile

import (
	"fmt"
	"math"
	"testing"

	"elephants/internal/relal"
)

// FuzzDictRoundTrip fuzzes the RCF3 dict-chunk encode/decode path:
// arbitrary bytes become a low-cardinality string column (cardinality,
// row-group size, and a pruning probe all fuzz-chosen), written both
// dictionary-encoded and raw. The two files must decode to identical
// rows, and the dict read must survive group-local dictionary merging,
// zone pruning, and column projection.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 8, 1})
	f.Add([]byte{1, 1, 0, 0, 0})
	f.Add([]byte("duplicate values duplicate values"))
	f.Add([]byte{0xff, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Layout: byte 0 → cardinality, byte 1 → row-group rows,
		// byte 2 → probe value for the pushed predicate; the rest
		// becomes the rows.
		card := 1
		groupRows := 1
		probe := 0
		if len(data) > 0 {
			card = int(data[0])%37 + 1
		}
		if len(data) > 1 {
			groupRows = int(data[1])%19 + 1
		}
		if len(data) > 2 {
			probe = int(data[2]) % (card + 3)
		}
		rows := len(data)
		xs := make([]string, rows)
		for i, b := range data {
			v := int(b) % card
			if v%5 == 0 {
				xs[i] = "" // empty-string sentinel
			} else {
				xs[i] = fmt.Sprintf("v%02d", v)
			}
		}
		sch := relal.Schema{{Name: "s", Type: relal.Str}}
		raw := relal.NewTable("f", sch, relal.StrsV(xs))
		dict := relal.NewTable("f", sch, relal.EncodeDict(xs))

		rawData, err := NewWriter(groupRows).Write(raw)
		if err != nil {
			t.Fatal(err)
		}
		dictData, err := NewWriter(groupRows).Write(dict)
		if err != nil {
			t.Fatal(err)
		}

		want, err := Read(rawData, sch, "f")
		if err != nil {
			t.Fatal(err)
		}
		got, err := Read(dictData, sch, "f")
		if err != nil {
			t.Fatal(err)
		}
		if want.NumRows() != rows || got.NumRows() != rows {
			t.Fatalf("row counts drift: raw %d, dict %d, want %d",
				want.NumRows(), got.NumRows(), rows)
		}
		wv, gv := want.StrCol("s"), got.StrCol("s")
		for i := 0; i < rows; i++ {
			if wv.Get(i) != gv.Get(i) {
				t.Fatalf("row %d: raw %q vs dict %q", i, wv.Get(i), gv.Get(i))
			}
		}

		// Pruned reads agree too: the same string predicate over both
		// encodings must keep identical row sets (pruning is
		// conservative, so compare the surviving values, not counts).
		pred := relal.ZonePredicate{relal.StrEq("s", fmt.Sprintf("v%02d", probe))}
		prunedRaw, _, err := ReadCols(rawData, sch, "f", nil, pred)
		if err != nil {
			t.Fatal(err)
		}
		prunedDict, _, err := ReadCols(dictData, sch, "f", nil, pred)
		if err != nil {
			t.Fatal(err)
		}
		match := func(tb *relal.Table) []string {
			var out []string
			v := tb.StrCol("s")
			target := fmt.Sprintf("v%02d", probe)
			for i := 0; i < tb.NumRows(); i++ {
				if v.Get(i) == target {
					out = append(out, v.Get(i))
				}
			}
			return out
		}
		mr, md := match(prunedRaw), match(prunedDict)
		if len(mr) != len(md) {
			t.Fatalf("pruned match counts drift: raw %d vs dict %d", len(mr), len(md))
		}
	})
}

// FuzzRLEDelta fuzzes the RCF6 run-length and delta chunk paths: the
// fuzzer picks the row-group size, run lengths, and dictionary
// cardinality, and the data becomes a sorted int key (delta/RLE bait),
// a runny float column, and a runny dict string column. The file must
// decode to the generated rows exactly, and a pruned read must keep
// every matching row, whichever encodings the chunks were stored in.
func FuzzRLEDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 3, 2, 1})
	f.Add([]byte{7, 1, 1, 9, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("runs runs runs runs runs runs"))
	f.Add([]byte{0xff, 0x01, 0x02, 0x03, 0x10, 0x10, 0x10, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Layout: byte 0 → row-group rows, byte 1 → run length,
		// byte 2 → dict cardinality, byte 3 → pruning probe; every
		// byte (including those four) contributes one row.
		groupRows := 1
		runLen := 1
		card := 1
		probe := int64(0)
		if len(data) > 0 {
			groupRows = int(data[0])%19 + 1
		}
		if len(data) > 1 {
			runLen = int(data[1])%7 + 1
		}
		if len(data) > 2 {
			card = int(data[2])%11 + 1
		}
		if len(data) > 3 {
			probe = int64(data[3])
		}
		rows := len(data)
		ints := make([]int64, rows)
		floats := make([]float64, rows)
		strs := make([]string, rows)
		key := int64(0)
		for i, b := range data {
			key += int64(b % 4) // sorted, small spans: delta/RLE bait
			ints[i] = key
			run := i / runLen
			floats[i] = float64(run%3) * 0.5
			strs[i] = fmt.Sprintf("v%02d", (run+int(b)%2)%card)
		}
		sch := relal.Schema{
			{Name: "k", Type: relal.Int},
			{Name: "x", Type: relal.Float},
			{Name: "s", Type: relal.Str},
		}
		tab := relal.NewTable("f", sch,
			relal.IntsV(ints), relal.FloatsV(floats), relal.EncodeDict(strs))

		data, err := NewWriter(groupRows).Write(tab)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Read(data, sch, "f")
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != rows {
			t.Fatalf("%d rows, want %d", got.NumRows(), rows)
		}
		kv, xv, sv := got.IntCol("k"), got.FloatCol("x"), got.StrCol("s")
		for i := 0; i < rows; i++ {
			if kv.Get(i) != ints[i] || xv.Get(i) != floats[i] || sv.Get(i) != strs[i] {
				t.Fatalf("row %d: (%d, %v, %q), want (%d, %v, %q)",
					i, kv.Get(i), xv.Get(i), sv.Get(i), ints[i], floats[i], strs[i])
			}
		}

		// A pruned projection keeps every matching row (pruning is
		// conservative; count the survivors against the source array).
		pred := relal.ZonePredicate{relal.IntBetween("k", probe, math.MaxInt64)}
		tb, _, err := ReadCols(data, sch, "f", []string{"k"}, pred)
		if err != nil {
			t.Fatal(err)
		}
		pk, kept, want := tb.IntCol("k"), 0, 0
		for i := 0; i < tb.NumRows(); i++ {
			if pk.Get(i) >= probe {
				kept++
			}
		}
		for _, k := range ints {
			if k >= probe {
				want++
			}
		}
		if kept != want {
			t.Fatalf("pruned read kept %d rows with k >= %d, want %d", kept, probe, want)
		}
	})
}
