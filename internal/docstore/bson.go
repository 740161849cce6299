// Package docstore is the BSON document codec: ordered documents and
// the subset of the BSON wire format they marshal to. The simulated
// mongod (internal/shard) stores documents in this form, and the HTAP
// write path (internal/htap) accepts writes in it. It imports no repo
// package, so both halves can use it.
package docstore

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Field is one key/value pair in a document. Documents preserve field
// order, as BSON does.
type Field struct {
	Key string
	Val Value
}

// Value is a BSON value: string, int64, float64, []byte, or *Doc.
type Value interface{}

// Doc is an ordered BSON document.
type Doc struct {
	Fields []Field
}

// NewDoc returns a document with the given fields.
func NewDoc(fields ...Field) *Doc { return &Doc{Fields: fields} }

// Set appends or replaces a field.
func (d *Doc) Set(key string, val Value) {
	for i := range d.Fields {
		if d.Fields[i].Key == key {
			d.Fields[i].Val = val
			return
		}
	}
	d.Fields = append(d.Fields, Field{Key: key, Val: val})
}

// Get returns the value for key and whether it exists.
func (d *Doc) Get(key string) (Value, bool) {
	for i := range d.Fields {
		if d.Fields[i].Key == key {
			return d.Fields[i].Val, true
		}
	}
	return nil, false
}

// Len returns the number of fields.
func (d *Doc) Len() int { return len(d.Fields) }

// BSON element type tags (subset of the BSON spec).
const (
	tagDouble = 0x01
	tagString = 0x02
	tagDoc    = 0x03
	tagBinary = 0x05
	tagInt64  = 0x12
)

// Marshal encodes the document in BSON wire format:
// int32 total length, elements (tag, cstring name, payload), 0x00.
func Marshal(d *Doc) []byte {
	body := make([]byte, 0, 64)
	for _, f := range d.Fields {
		body = appendElement(body, f.Key, f.Val)
	}
	out := make([]byte, 4, 4+len(body)+1)
	out = append(out, body...)
	out = append(out, 0)
	binary.LittleEndian.PutUint32(out[:4], uint32(len(out)))
	return out
}

func appendElement(b []byte, key string, v Value) []byte {
	switch val := v.(type) {
	case string:
		b = append(b, tagString)
		b = appendCString(b, key)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(val)+1))
		b = append(b, val...)
		b = append(b, 0)
	case int64:
		b = append(b, tagInt64)
		b = appendCString(b, key)
		b = binary.LittleEndian.AppendUint64(b, uint64(val))
	case float64:
		b = append(b, tagDouble)
		b = appendCString(b, key)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(val))
	case []byte:
		b = append(b, tagBinary)
		b = appendCString(b, key)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(val)))
		b = append(b, 0) // generic binary subtype
		b = append(b, val...)
	case *Doc:
		b = append(b, tagDoc)
		b = appendCString(b, key)
		b = append(b, Marshal(val)...)
	default:
		panic(fmt.Sprintf("docstore: unsupported BSON value type %T", v))
	}
	return b
}

func appendCString(b []byte, s string) []byte {
	b = append(b, s...)
	return append(b, 0)
}

// Unmarshal decodes a BSON document produced by Marshal. It accepts
// exactly the byte strings Marshal can produce: every element must end
// before the document's terminating 0x00, every string must end in NUL,
// and binary elements must carry the generic subtype 0.
func Unmarshal(data []byte) (*Doc, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("docstore: bson too short (%d bytes)", len(data))
	}
	total := int(binary.LittleEndian.Uint32(data[:4]))
	if total != len(data) {
		return nil, fmt.Errorf("docstore: bson length %d != buffer %d", total, len(data))
	}
	end := len(data) - 1 // the terminator; elements live in data[4:end]
	if data[end] != 0 {
		return nil, fmt.Errorf("docstore: bson missing terminator")
	}
	d := &Doc{}
	pos := 4
	for pos < end {
		tag := data[pos]
		pos++
		key, n, err := readCString(data[pos:end])
		if err != nil {
			return nil, err
		}
		pos += n
		var val Value
		switch tag {
		case tagString:
			if pos+4 > end {
				return nil, fmt.Errorf("docstore: truncated string element")
			}
			slen := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
			pos += 4
			if slen < 1 || pos+slen > end {
				return nil, fmt.Errorf("docstore: bad string length %d", slen)
			}
			if data[pos+slen-1] != 0 {
				return nil, fmt.Errorf("docstore: string element not NUL-terminated")
			}
			val = string(data[pos : pos+slen-1])
			pos += slen
		case tagInt64:
			if pos+8 > end {
				return nil, fmt.Errorf("docstore: truncated int64 element")
			}
			val = int64(binary.LittleEndian.Uint64(data[pos : pos+8]))
			pos += 8
		case tagDouble:
			if pos+8 > end {
				return nil, fmt.Errorf("docstore: truncated double element")
			}
			val = math.Float64frombits(binary.LittleEndian.Uint64(data[pos : pos+8]))
			pos += 8
		case tagBinary:
			if pos+5 > end {
				return nil, fmt.Errorf("docstore: truncated binary element")
			}
			blen := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
			if sub := data[pos+4]; sub != 0 {
				return nil, fmt.Errorf("docstore: unsupported binary subtype 0x%02x", sub)
			}
			pos += 5 // length + subtype
			if blen < 0 || pos+blen > end {
				return nil, fmt.Errorf("docstore: bad binary length %d", blen)
			}
			cp := make([]byte, blen)
			copy(cp, data[pos:pos+blen])
			val = cp
			pos += blen
		case tagDoc:
			if pos+4 > end {
				return nil, fmt.Errorf("docstore: truncated subdocument")
			}
			dlen := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
			if dlen < 5 || pos+dlen > end {
				return nil, fmt.Errorf("docstore: bad subdocument length %d", dlen)
			}
			sub, err := Unmarshal(data[pos : pos+dlen])
			if err != nil {
				return nil, err
			}
			val = sub
			pos += dlen
		default:
			return nil, fmt.Errorf("docstore: unsupported BSON tag 0x%02x", tag)
		}
		d.Fields = append(d.Fields, Field{Key: key, Val: val})
	}
	return d, nil
}

func readCString(b []byte) (string, int, error) {
	for i, c := range b {
		if c == 0 {
			return string(b[:i]), i + 1, nil
		}
	}
	return "", 0, fmt.Errorf("docstore: unterminated cstring")
}
