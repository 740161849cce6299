package rcfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
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

		want, _, err := ReadCols(rawData, sch, "f", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadCols(dictData, sch, "f", nil, nil)
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

// FuzzRunsDelta fuzzes the gdict+rle and delta chunk paths: the
// fuzzer picks the row-group size, run lengths, and dictionary
// cardinality, and the data becomes a sorted int key (delta bait), a
// runny float column (stored plain: runs encode only dictionary codes),
// and a runny dict string column (gdict+rle bait). The file must decode
// to the generated rows exactly, and a pruned read must keep every
// matching row, whichever encodings the chunks were stored in.
func FuzzRunsDelta(f *testing.F) {
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
			key += int64(b % 4) // sorted, small spans: delta bait
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
		got, _, err := ReadCols(data, sch, "f", nil, nil)
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

// allocatedBy reports the bytes fn allocates, including what is garbage
// by the time it returns. TotalAlloc is process-wide, so it takes the
// least of three identical calls: fn is deterministic, and any excess
// in one call was another goroutine's.
func allocatedBy(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// decodeFixture is a one-column, one-group file and the payload of its
// one chunk, which the writer laid down in enc.
type decodeFixture struct {
	schema  relal.Schema
	rows    int
	data    []byte
	enc     byte
	payload []byte
}

// decodeFixtures writes one fixture per chunk encoding: plain for each
// of the three types, gdict, gdict+rle, delta and decimal.
func decodeFixtures(tb testing.TB) []decodeFixture {
	const rows = 64
	vecs := []*relal.Vector{
		relal.IntsV(fill(rows, func(i int) int64 { return int64(i) << 40 })),
		relal.FloatsV(fill(rows, func(i int) float64 { return float64(i) + math.Pi })),
		relal.StrsV(fill(rows, func(i int) string { return fmt.Sprintf("s%d", i) })),
		relal.EncodeDict(fill(rows, func(i int) string { return fmt.Sprintf("v%d", i%5) })),
		relal.EncodeDict(fill(rows, func(i int) string { return fmt.Sprintf("v%d", i/16) })),
		relal.IntsV(fill(rows, func(i int) int64 { return 1000 + int64(i) })),
		relal.FloatsV(fill(rows, func(i int) float64 { return float64(i) / 100 })),
	}
	var out []decodeFixture
	for _, v := range vecs {
		schema := relal.Schema{{Name: "x", Type: v.Kind}}
		data, err := NewWriter(rows).Write(relal.NewTable("f", schema, v))
		if err != nil {
			tb.Fatal(err)
		}
		p, err := parse(data, schema)
		if err != nil {
			tb.Fatal(err)
		}
		gr := p.groups[0]
		payload := data[gr.offset : gr.offset+int64(gr.compLens[0])]
		if gr.deflated[0] {
			buf, err := inflate(payload)
			if err != nil {
				tb.Fatal(err)
			}
			payload = *buf
		}
		out = append(out, decodeFixture{schema: schema, rows: rows, data: data, enc: gr.encs[0], payload: bytes.Clone(payload)})
	}
	return out
}

// FuzzChunkDecode fuzzes the chunk decoders behind the CRCs: the fuzzer
// picks an encoding's fixture, a payload and whether the chunk is stored
// or deflated (optionally with a forged gzip ISIZE trailer), and the
// harness splices that chunk into the fixture's file and re-stamps the
// chunk and trailer CRCs, so every byte reaches a decoder. A read must
// not panic, must return exactly the group's rows when it accepts, and
// must allocate no more than the FuzzWireTable bound — plus, for a
// deflated chunk, the buffer its ISIZE sizes, which may not follow a
// lying trailer past 1032× the stream.
func FuzzChunkDecode(f *testing.F) {
	fixtures := decodeFixtures(f)
	for i, fx := range fixtures {
		f.Add(uint8(i), false, fx.payload, uint32(0))
		f.Add(uint8(i), true, fx.payload, uint32(0))
	}
	f.Add(uint8(0), true, fixtures[0].payload, uint32(math.MaxUint32))
	f.Add(uint8(2), true, fixtures[2].payload, uint32(3))
	f.Fuzz(func(t *testing.T, which uint8, deflated bool, payload []byte, isize uint32) {
		if len(payload) > 2<<10 {
			return // past the fixtures' sizes; keeps a forged ISIZE's buffer near 2 MiB
		}
		fx := fixtures[int(which)%len(fixtures)]
		stored, enc, inflated := payload, fx.enc, 0
		if deflated {
			gz, err := deflate(payload)
			if err != nil {
				t.Fatal(err)
			}
			if isize != 0 {
				binary.LittleEndian.PutUint32(gz[len(gz)-4:], isize)
			}
			stored, enc = gz, fx.enc|encDeflated
			inflated = min(int(binary.LittleEndian.Uint32(gz[len(gz)-4:])), maxInflateRatio*len(gz))
		}
		file := withChunk(fx.data, stored, enc)
		var got *relal.Table
		var err error
		alloc := allocatedBy(func() { got, _, err = ReadCols(file, fx.schema, "f", nil, nil) })
		// The inflate buffer counts twice: once as itself, once for the
		// string cells a plain Str chunk copies out of it.
		if limit := uint64(16*len(file) + 64<<10 + 2*inflated); alloc > limit {
			t.Fatalf("reading a %d-byte file (%d inflated) allocated %d (limit %d)", len(file), inflated, alloc, limit)
		}
		if err != nil {
			return
		}
		v := got.Cols[0]
		if cells := len(v.Ints) + len(v.Floats) + len(v.Strs) + len(v.Dict); got.NumRows() != fx.rows || cells != fx.rows {
			t.Fatalf("accepted chunk decoded to %d rows, %d cells; the group holds %d", got.NumRows(), cells, fx.rows)
		}
	})
}
