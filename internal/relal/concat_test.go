package relal

import (
	"reflect"
	"testing"
)

func concatSchema() Schema {
	return Schema{
		{Name: "k", Type: Int},
		{Name: "x", Type: Float},
		{Name: "s", Type: Str},
	}
}

func tableRows(t *Table) []Row { return RowsOf(t) }

// TestConcatBasic pins the core contract: rows of the parts in order,
// regardless of each part's physical encoding.
func TestConcatBasic(t *testing.T) {
	sch := concatSchema()
	a := NewTable("t", sch,
		IntsV([]int64{1, 2}),
		FloatsV([]float64{0.5, 1.5}),
		StrsV([]string{"x", "y"}),
	)
	b := NewTable("t", sch,
		IntsV([]int64{3}),
		FloatsV([]float64{2.5}),
		StrsV([]string{"z"}),
	)
	got := Concat("t", sch, a, b)
	want := []Row{{int64(1), 0.5, "x"}, {int64(2), 1.5, "y"}, {int64(3), 2.5, "z"}}
	if !reflect.DeepEqual(tableRows(got), want) {
		t.Errorf("rows = %v, want %v", tableRows(got), want)
	}
	if got.NumRows() != 3 {
		t.Errorf("NumRows = %d, want 3", got.NumRows())
	}
}

// TestConcatEmptyParts: empty parts vanish; a single surviving part's
// vectors are reused as-is (no copying).
func TestConcatEmptyParts(t *testing.T) {
	sch := concatSchema()
	empty := NewTable("t", sch, IntsV(nil), FloatsV(nil), StrsV(nil))
	a := NewTable("t", sch,
		IntsV([]int64{7}), FloatsV([]float64{7}), StrsV([]string{"q"}))
	got := Concat("t", sch, empty, a, empty)
	for ci := range sch {
		if got.Cols[ci] != a.Cols[ci] {
			t.Errorf("column %d of the single non-empty part was copied", ci)
		}
	}
	if allEmpty := Concat("t", sch, empty, empty); allEmpty.NumRows() != 0 {
		t.Errorf("all-empty concat has %d rows", allEmpty.NumRows())
	}
}

// TestConcatSameDict: parts sharing one dictionary concatenate codes
// without decoding, and the result stays dictionary-encoded.
func TestConcatSameDict(t *testing.T) {
	sch := Schema{{Name: "s", Type: Str}}
	vals := []string{"AIR", "RAIL", "SHIP"}
	a := NewTable("t", sch, DictV([]uint32{0, 2}, vals))
	b := NewTable("t", sch, DictV([]uint32{1, 1, 0}, vals))
	got := Concat("t", sch, a, b)
	v := got.Cols[0]
	if !v.IsDict() {
		t.Fatalf("same-dict concat lost dictionary encoding")
	}
	if &v.DictVals[0] != &vals[0] {
		t.Errorf("same-dict concat copied the dictionary")
	}
	want := []string{"AIR", "SHIP", "RAIL", "RAIL", "AIR"}
	if !reflect.DeepEqual(v.DecodeStrs(), want) {
		t.Errorf("values = %v, want %v", v.DecodeStrs(), want)
	}
}

// TestConcatEqualDicts: parts whose dictionaries are equal but live in
// separate slices (each decoded from its own file, or off the wire)
// concatenate codes over the first part's dictionary — no union merge,
// no remap.
func TestConcatEqualDicts(t *testing.T) {
	sch := Schema{{Name: "s", Type: Str}}
	first := []string{"AIR", "RAIL", "SHIP"}
	a := NewTable("t", sch, DictV([]uint32{0, 2}, first))
	b := NewTable("t", sch, DictV([]uint32{1, 1, 0}, []string{"AIR", "RAIL", "SHIP"}))
	v := Concat("t", sch, a, b).Cols[0]
	if !v.IsDict() || &v.DictVals[0] != &first[0] {
		t.Fatalf("equal-dict concat rebuilt the dictionary")
	}
	want := []string{"AIR", "SHIP", "RAIL", "RAIL", "AIR"}
	if !reflect.DeepEqual(v.DecodeStrs(), want) {
		t.Errorf("values = %v, want %v", v.DecodeStrs(), want)
	}
}

// TestConcatMergedDicts: parts with different dictionaries (which no
// caller produces: HTAP parts and tails re-encode against the base
// table's dictionary or go raw, dist shards ship the generated one)
// decode to raw strings with identical values.
func TestConcatMergedDicts(t *testing.T) {
	sch := Schema{{Name: "s", Type: Str}}
	a := NewTable("t", sch, DictV([]uint32{0, 1}, []string{"AIR", "SHIP"}))
	b := NewTable("t", sch, DictV([]uint32{1, 0}, []string{"MAIL", "RAIL"}))
	got := Concat("t", sch, a, b)
	v := got.Cols[0]
	if v.IsDict() {
		t.Errorf("differing dictionaries should decode the concat to raw strings")
	}
	want := []string{"AIR", "SHIP", "RAIL", "MAIL"}
	if !reflect.DeepEqual(v.DecodeStrs(), want) {
		t.Errorf("values = %v, want %v", v.DecodeStrs(), want)
	}
}

// TestConcatRawDegrade: any raw-string part degrades the column to raw
// strings with identical values (the out-of-dictionary delta tail case).
func TestConcatRawDegrade(t *testing.T) {
	sch := Schema{{Name: "s", Type: Str}}
	a := NewTable("t", sch, DictV([]uint32{1, 0}, []string{"AIR", "SHIP"}))
	b := NewTable("t", sch, StrsV([]string{"TRUCK"}))
	got := Concat("t", sch, a, b)
	v := got.Cols[0]
	if v.IsDict() {
		t.Errorf("raw part should degrade the concat to raw strings")
	}
	want := []string{"SHIP", "AIR", "TRUCK"}
	if !reflect.DeepEqual(v.DecodeStrs(), want) {
		t.Errorf("values = %v, want %v", v.DecodeStrs(), want)
	}
}

// TestConcatByNameSelection: parts whose schemas differ in column order
// and width (a full-schema in-memory part next to a subset-schema
// rcfile part) are matched by column name.
func TestConcatByNameSelection(t *testing.T) {
	full := Schema{{Name: "k", Type: Int}, {Name: "x", Type: Float}, {Name: "s", Type: Str}}
	sub := Schema{{Name: "s", Type: Str}, {Name: "k", Type: Int}}
	a := NewTable("t", full,
		IntsV([]int64{1}), FloatsV([]float64{0.5}), StrsV([]string{"x"}))
	b := NewTable("t", sub, StrsV([]string{"y"}), IntsV([]int64{2}))
	out := Schema{{Name: "k", Type: Int}, {Name: "s", Type: Str}}
	got := Concat("t", out, a, b)
	want := []Row{{int64(1), "x"}, {int64(2), "y"}}
	if !reflect.DeepEqual(tableRows(got), want) {
		t.Errorf("rows = %v, want %v", tableRows(got), want)
	}
}

// TestConcatCompactsViews: a filtered view part contributes only its
// selected rows.
func TestConcatCompactsViews(t *testing.T) {
	sch := Schema{{Name: "k", Type: Int}}
	base := NewTable("t", sch, IntsV([]int64{1, 2, 3, 4}))
	e := &Exec{}
	odd := e.Filter(base, func(i int) bool { return base.IntCol("k").Get(i)%2 == 1 })
	b := NewTable("t", sch, IntsV([]int64{9}))
	got := Concat("t", sch, odd, b)
	want := []int64{1, 3, 9}
	if !reflect.DeepEqual(got.Cols[0].Ints, want) {
		t.Errorf("values = %v, want %v", got.Cols[0].Ints, want)
	}
}

// TestHead pins the zero-copy prefix used to hold back write traffic.
func TestHead(t *testing.T) {
	sch := concatSchema()
	base := NewTable("t", sch,
		IntsV([]int64{1, 2, 3}),
		FloatsV([]float64{0.5, 1.5, 2.5}),
		EncodeDict([]string{"x", "y", "x"}),
	)
	h := Head(base, 2)
	if h.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", h.NumRows())
	}
	want := []Row{{int64(1), 0.5, "x"}, {int64(2), 1.5, "y"}}
	if !reflect.DeepEqual(tableRows(h), want) {
		t.Errorf("rows = %v, want %v", tableRows(h), want)
	}
	if !h.Cols[2].IsDict() {
		t.Errorf("Head lost dictionary encoding")
	}
	if full := Head(base, 3); full != base {
		t.Errorf("Head(t, NumRows) should return t unchanged")
	}
}
