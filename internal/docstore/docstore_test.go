package docstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestBSONRoundTripBasic(t *testing.T) {
	d := NewDoc(
		Field{"_id", "user42"},
		Field{"age", int64(7)},
		Field{"score", 3.5},
		Field{"blob", []byte{1, 2, 3}},
	)
	got, err := Unmarshal(Marshal(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Fatalf("fields = %d, want 4", got.Len())
	}
	if v, _ := got.Get("_id"); v.(string) != "user42" {
		t.Errorf("_id = %v", v)
	}
	if v, _ := got.Get("age"); v.(int64) != 7 {
		t.Errorf("age = %v", v)
	}
	if v, _ := got.Get("score"); v.(float64) != 3.5 {
		t.Errorf("score = %v", v)
	}
	if v, _ := got.Get("blob"); !bytes.Equal(v.([]byte), []byte{1, 2, 3}) {
		t.Errorf("blob = %v", v)
	}
}

func TestBSONNestedDoc(t *testing.T) {
	d := NewDoc(Field{"inner", NewDoc(Field{"x", int64(1)})})
	got, err := Unmarshal(Marshal(d))
	if err != nil {
		t.Fatal(err)
	}
	inner, _ := got.Get("inner")
	v, _ := inner.(*Doc).Get("x")
	if v.(int64) != 1 {
		t.Errorf("inner.x = %v", v)
	}
}

func TestBSONPreservesFieldOrder(t *testing.T) {
	d := NewDoc(Field{"z", "1"}, Field{"a", "2"}, Field{"m", "3"})
	got, _ := Unmarshal(Marshal(d))
	order := []string{"z", "a", "m"}
	for i, f := range got.Fields {
		if f.Key != order[i] {
			t.Errorf("field %d = %q, want %q", i, f.Key, order[i])
		}
	}
}

func TestBSONErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil input should fail")
	}
	if _, err := Unmarshal([]byte{9, 0, 0, 0, 1}); err == nil {
		t.Error("bad length should fail")
	}
	good := Marshal(NewDoc(Field{"a", "b"}))
	bad := append([]byte{}, good...)
	bad[len(bad)-1] = 1
	if _, err := Unmarshal(bad); err == nil {
		t.Error("missing terminator should fail")
	}
}

// TestBSONRejectsMalformed: documents Marshal cannot produce are
// errors, not silently altered values. The string "abcd" with no NUL
// used to decode as "abc", and a string whose NUL doubled as the
// document terminator used to decode as if the document were complete.
func TestBSONRejectsMalformed(t *testing.T) {
	binary := Marshal(NewDoc(Field{"b", []byte{7}}))
	binary[11] = 0x80 // subtype byte: user-defined, not generic
	for name, data := range map[string][]byte{
		"string without NUL":        {0x10, 0, 0, 0, 0x02, 'k', 0, 4, 0, 0, 0, 'a', 'b', 'c', 'd', 0},
		"string through terminator": {0x0f, 0, 0, 0, 0x02, 'k', 0, 4, 0, 0, 0, 'a', 'b', 'c', 0},
		"binary subtype 0x80":       binary,
	} {
		if d, err := Unmarshal(data); err == nil {
			t.Errorf("%s: decoded to %v, want an error", name, d.Fields)
		}
	}
}

// FuzzBSONUnmarshal: Unmarshal never panics, and it accepts exactly the
// image of Marshal — every input it decodes re-marshals to itself.
func FuzzBSONUnmarshal(f *testing.F) {
	f.Add(Marshal(NewDoc()))
	f.Add(Marshal(NewDoc(Field{"_id", "user42"}, Field{"age", int64(7)}, Field{"score", 3.5})))
	f.Add(Marshal(NewDoc(Field{"blob", []byte{1, 2, 3}}, Field{"inner", NewDoc(Field{"x", ""})})))
	f.Add([]byte{0x10, 0, 0, 0, 0x02, 'k', 0, 4, 0, 0, 0, 'a', 'b', 'c', 'd', 0})
	f.Add([]byte{0x0f, 0, 0, 0, 0x02, 'k', 0, 4, 0, 0, 0, 'a', 'b', 'c', 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Unmarshal(data)
		if err != nil {
			return
		}
		if got := Marshal(d); !bytes.Equal(got, data) {
			t.Fatalf("accepted % x, which re-marshals to % x", data, got)
		}
	})
}

func TestBSONStringRoundTripProperty(t *testing.T) {
	f := func(key0 string, vals []string) bool {
		d := &Doc{}
		for i, v := range vals {
			d.Set(fmt.Sprintf("f%d", i), v)
		}
		got, err := Unmarshal(Marshal(d))
		if err != nil {
			return false
		}
		if got.Len() != d.Len() {
			return false
		}
		for i := range d.Fields {
			if got.Fields[i].Key != d.Fields[i].Key || got.Fields[i].Val != d.Fields[i].Val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDocSetReplaces(t *testing.T) {
	d := NewDoc(Field{"a", "1"})
	d.Set("a", "2")
	if d.Len() != 1 {
		t.Errorf("len = %d, want 1", d.Len())
	}
	if v, _ := d.Get("a"); v.(string) != "2" {
		t.Errorf("a = %v", v)
	}
}
