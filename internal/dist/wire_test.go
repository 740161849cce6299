package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"elephants/internal/relal"
)

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

// TestDistFrameReadLyingHeader: a header that announces 200 MiB and then
// delivers ten bytes must fail on the missing bytes having cost next to
// nothing — the reader may not take the peer's word for the size.
func TestDistFrameReadLyingHeader(t *testing.T) {
	frame := binary.LittleEndian.AppendUint32(nil, 200<<20)
	frame = append(frame, "ten bytes!"...)
	for name, read := range map[string]func(io.Reader) ([]byte, error){
		"ReadFrame":    ReadFrame,
		"readRawFrame": readRawFrame,
	} {
		var err error
		got := allocatedBy(func() { _, err = read(bytes.NewReader(frame)) })
		if err == nil {
			t.Fatalf("%s accepted a frame missing %d bytes", name, 200<<20-10)
		}
		if got >= 1<<20 {
			t.Fatalf("%s allocated %d bytes for a 14-byte input", name, got)
		}
	}
}

// TestDistFrameReadGrows round-trips payloads on both sides of every growth
// step of the frame reader.
func TestDistFrameReadGrows(t *testing.T) {
	for _, n := range []int{0, 1, frameReadStep - 9, frameReadStep - 8, frameReadStep - 7, frameReadStep, frameReadGrowth * frameReadStep, 3<<20 + 5} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		// Two readers back to back: the first read comes up short, as
		// reads off a socket do.
		got, err := ReadFrame(io.MultiReader(bytes.NewReader(buf.Bytes()[:buf.Len()/2]), bytes.NewReader(buf.Bytes()[buf.Len()/2:])))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("payload of %d bytes: err %v, equal %v", n, err, bytes.Equal(got, payload))
		}
	}
}

// TestDistResponseOpaqueData: EncodeResponse/DecodeResponse carry any Data
// bytes unchanged next to the gob header fields (the benchmark's wire
// probe ships an RCFile this way).
func TestDistResponseOpaqueData(t *testing.T) {
	in := Response{
		Shard: 3, Seq: 11, Rows: 7, Data: []byte{0, 1, 2, 0xff, 0, 0, 0, 9},
		Schema: relal.Schema{{Name: "k", Type: relal.Int}},
	}
	payload, err := EncodeResponse(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Data, in.Data) || out.Shard != 3 || out.Seq != 11 || out.Rows != 7 ||
		!slices.Equal(out.Schema, in.Schema) {
		t.Fatalf("round trip changed the response: %+v", out)
	}
	for cut := 0; cut < 4+int(binary.LittleEndian.Uint32(payload)); cut++ {
		if _, err := DecodeResponse(payload[:cut]); err == nil {
			t.Fatalf("response cut to %d bytes (inside its header) accepted", cut)
		}
	}
}

// ship sends tbl the way a shard does — tableResponse, writeResponse —
// and reads it back the way the coordinator does, returning the
// response as decoded off the frame.
func ship(t testing.TB, tbl *relal.Table) Response {
	t.Helper()
	resp, dense := (&Shard{}).tableResponse(tbl)
	var buf bytes.Buffer
	if err := writeResponse(&buf, newGobOut(), resp, dense); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// sameCells requires got and want to hold the same cells: same schema,
// same row count, floats compared by bit pattern (NaN equals NaN, +0
// differs from -0).
func sameCells(t testing.TB, got, want *relal.Table) {
	t.Helper()
	if !slices.Equal(got.Schema, want.Schema) {
		t.Fatalf("schema %v, want %v", got.Schema, want.Schema)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for _, c := range want.Schema {
		switch c.Type {
		case relal.Int:
			g, w := got.IntCol(c.Name), want.IntCol(c.Name)
			for i := 0; i < want.NumRows(); i++ {
				if g.Get(i) != w.Get(i) {
					t.Fatalf("%s[%d] = %d, want %d", c.Name, i, g.Get(i), w.Get(i))
				}
			}
		case relal.Float:
			g, w := got.FloatCol(c.Name), want.FloatCol(c.Name)
			for i := 0; i < want.NumRows(); i++ {
				if math.Float64bits(g.Get(i)) != math.Float64bits(w.Get(i)) {
					t.Fatalf("%s[%d] = %v, want %v", c.Name, i, g.Get(i), w.Get(i))
				}
			}
		default:
			g, w := got.StrCol(c.Name), want.StrCol(c.Name)
			for i := 0; i < want.NumRows(); i++ {
				if g.Get(i) != w.Get(i) {
					t.Fatalf("%s[%d] = %q, want %q", c.Name, i, g.Get(i), w.Get(i))
				}
			}
		}
	}
}

// wireShapes is one table per vector shape the codec ships, with the
// values that break careless codecs: NaN, both zeros, the int64
// extremes, the empty string (as a cell and as a dictionary value).
func wireShapes() map[string]*relal.Table {
	schema := relal.Schema{{Name: "k", Type: relal.Int}, {Name: "x", Type: relal.Float}, {Name: "s", Type: relal.Str}}
	negZero := math.Copysign(0, -1)
	dict := []string{"", "AIR", "RAIL", "TRUCK ÅÄÖ"}
	flat := relal.NewTable("flat", schema,
		relal.IntsV([]int64{math.MinInt64, -1, 0, 1, math.MaxInt64}),
		relal.FloatsV([]float64{math.NaN(), 0, negZero, math.Inf(-1), math.SmallestNonzeroFloat64}),
		relal.StrsV([]string{"", "a", "", "two words", "日本"}),
	)
	return map[string]*relal.Table{
		"flat": flat,
		"dict": relal.NewTable("dict", schema,
			relal.IntsV([]int64{1, 2, 3}),
			relal.FloatsV([]float64{1, 2, 3}),
			relal.DictV([]uint32{3, 0, 1}, dict),
		),
		"empty-dict-values": relal.NewTable("d0", schema[2:], relal.DictV([]uint32{0, 0}, []string{""})),
		"empty":             relal.NewTable("empty", schema),
		// A view: the selection vector reorders and drops rows, and the
		// shard has to ship the cells it selects, not the ones it hides.
		"view": (&relal.Exec{Parallelism: 1}).Sort(flat, relal.OrderSpec{Col: "k", Desc: true}),
		"filtered-view": (&relal.Exec{Parallelism: 1}).Filter(flat, func(i int) bool {
			return i%2 == 1
		}),
	}
}

// TestDistWireTableRoundTrip is the codec's differential: every shape comes
// back cell for cell, in the encoding it left in.
func TestDistWireTableRoundTrip(t *testing.T) {
	for name, tbl := range wireShapes() {
		t.Run(name, func(t *testing.T) {
			resp := ship(t, tbl)
			got, err := decodeTable(resp, tbl.Name)
			if err != nil {
				t.Fatal(err)
			}
			sameCells(t, got, tbl)
			if got.NumRows() == 0 {
				if resp.Data != nil {
					t.Fatalf("empty table shipped %d data bytes", len(resp.Data))
				}
				return
			}
			for i, v := range tbl.Compacted().Cols {
				if g := got.Cols[i]; g.IsDict() != v.IsDict() {
					t.Fatalf("column %d changed shape: dict %v→%v", i, v.IsDict(), g.IsDict())
				}
			}
		})
	}
}

// tableData returns the Data bytes a shard ships for the given column
// vectors, with no validation of what they hold.
func tableData(cols ...*relal.Vector) []byte {
	data := binary.LittleEndian.AppendUint32(nil, uint32(len(cols)))
	for _, v := range cols {
		data = appendColumn(data, v)
	}
	return data
}

// retiredRunColumn is a two-row Int column as the codec shipped run
// lists before they left the engine: tag bit 0x08, one value, one
// exclusive run end. The bit is unassigned now and must be refused.
var retiredRunColumn = []byte{1, 0, 0, 0, 0x08, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0}

// TestDistWireTableRejects: each invariant the decoder owes the engine,
// violated one at a time, is an error and never a table.
func TestDistWireTableRejects(t *testing.T) {
	intCol := relal.Schema{{Name: "k", Type: relal.Int}}
	strCol := relal.Schema{{Name: "s", Type: relal.Str}}
	good := tableData(relal.IntsV([]int64{1, 2}))
	cases := map[string]Response{
		"code out of range":      {Schema: strCol, Rows: 2, Data: tableData(relal.DictV([]uint32{0, 2}, []string{"a", "b"}))},
		"dictionary unsorted":    {Schema: strCol, Rows: 1, Data: tableData(relal.DictV([]uint32{0}, []string{"b", "a"}))},
		"dictionary duplicates":  {Schema: strCol, Rows: 1, Data: tableData(relal.DictV([]uint32{0}, []string{"a", "a"}))},
		"fewer cells than rows":  {Schema: intCol, Rows: 3, Data: good},
		"more cells than rows":   {Schema: intCol, Rows: 1, Data: good},
		"kind differs":           {Schema: relal.Schema{{Name: "k", Type: relal.Float}}, Rows: 2, Data: good},
		"unknown kind in schema": {Schema: relal.Schema{{Name: "k", Type: 3}}, Rows: 2, Data: append([]byte{1, 0, 0, 0, 3}, good[5:]...)},
		"unknown tag bits":       {Schema: intCol, Rows: 2, Data: append([]byte{1, 0, 0, 0, 0x10}, good[5:]...)},
		"dict tag on ints":       {Schema: intCol, Rows: 2, Data: append([]byte{1, 0, 0, 0, wireDict}, good[5:]...)},
		"retired run tag bit":    {Schema: intCol, Rows: 2, Data: retiredRunColumn},
		"column count differs":   {Schema: append(intCol, intCol...), Rows: 2, Data: good},
		"trailing bytes":         {Schema: intCol, Rows: 2, Data: append(slices.Clone(good), 0)},
		"count past the input":   {Schema: intCol, Rows: 1 << 20, Data: append([]byte{1, 0, 0, 0, 0}, 0, 0, 0x10, 0)},
		"negative rows":          {Schema: intCol, Rows: -2, Data: good},
		"rows without a schema":  {Rows: 2, Data: []byte{0, 0, 0, 0}},
		"no data":                {Schema: intCol, Rows: 2},
	}
	for name, resp := range cases {
		if tbl, err := decodeTable(resp, "t"); err == nil {
			t.Errorf("%s: decoded into %d rows", name, tbl.NumRows())
		}
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeTable(Response{Schema: intCol, Rows: 2, Data: good[:cut]}, "t"); err == nil {
			t.Errorf("data cut to %d of %d bytes decoded", cut, len(good))
		}
	}
	if _, err := decodeTable(Response{Schema: intCol, Rows: 2, Data: good}, "t"); err != nil {
		t.Fatalf("the undamaged table these cases damage: %v", err)
	}
}

// checkVector fails unless v satisfies what the engine's kernels assume
// of a vector of the given type and length.
func checkVector(t *testing.T, v *relal.Vector, kind relal.Type, rows int) {
	t.Helper()
	if v.Kind != kind || v.Len() != rows {
		t.Fatalf("vector of type %d with %d rows, want type %d with %d", v.Kind, v.Len(), kind, rows)
	}
	cells := map[relal.Type]int{relal.Int: len(v.Ints), relal.Float: len(v.Floats), relal.Str: len(v.Strs)}
	if v.IsDict() {
		cells[relal.Str] = len(v.Dict)
		if !slices.IsSorted(v.DictVals) || len(slices.Compact(slices.Clone(v.DictVals))) != len(v.DictVals) {
			t.Fatalf("dictionary %q not sorted and duplicate-free", v.DictVals)
		}
		for _, c := range v.Dict {
			if int(c) >= len(v.DictVals) {
				t.Fatalf("code %d outside a dictionary of %d", c, len(v.DictVals))
			}
		}
	}
	if cells[kind] != rows {
		t.Fatalf("%d cells for %d rows", cells[kind], rows)
	}
}

// FuzzWireTable feeds the table decoder arbitrary bytes under an
// arbitrary claimed schema and row count. It must never panic, never
// allocate out of proportion to its input (a length field is a claim,
// not a fact), and whatever it accepts must satisfy the vector
// invariants and be the canonical encoding of what it decoded to.
func FuzzWireTable(f *testing.F) {
	for _, tbl := range wireShapes() {
		resp := ship(f, tbl)
		kinds := make([]byte, len(resp.Schema))
		for i, c := range resp.Schema {
			kinds[i] = byte(c.Type)
		}
		f.Add(resp.Data, kinds, resp.Rows)
	}
	f.Add([]byte{1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, []byte{0}, 1<<32-1)
	f.Add([]byte{1, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0}, []byte{2}, 1<<31-1)
	f.Add([]byte{}, []byte{}, -1)
	f.Add(retiredRunColumn, []byte{byte(relal.Int)}, 2)
	f.Fuzz(func(t *testing.T, data, kinds []byte, rows int) {
		if len(kinds) > 16 {
			kinds = kinds[:16]
		}
		resp := Response{Rows: rows, Data: data}
		for i, k := range kinds {
			// k%4 so that the fourth, non-existent type gets claimed too.
			resp.Schema = append(resp.Schema, relal.Column{Name: strings.Repeat("c", i+1), Type: relal.Type(k % 4)})
		}
		var tbl *relal.Table
		var err error
		if got, limit := allocatedBy(func() { tbl, err = decodeTable(resp, "fuzz") }), uint64(16*len(data)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if tbl.NumRows() != rows || !slices.Equal(tbl.Schema, resp.Schema) {
			t.Fatalf("decoded %d rows of %v, claimed %d of %v", tbl.NumRows(), tbl.Schema, rows, resp.Schema)
		}
		if rows == 0 {
			return
		}
		for i, v := range tbl.Cols {
			checkVector(t, v, resp.Schema[i].Type, rows)
		}
		if again := tableData(tbl.Cols...); !bytes.Equal(again, data) {
			t.Fatalf("accepted a non-canonical encoding:\n in  %x\n out %x", data, again)
		}
	})
}
