// Multi-part table concatenation: the HTAP scan path answers queries
// over a base part, zero or more converted delta parts, and the
// unconverted delta tail, stitched back together in row order. A Str
// column stays dictionary-encoded when every part carries the same
// dictionary — codes concatenate without decoding — and decodes to raw
// strings otherwise: the rule dist's scan merge applies across shards.
package relal

// Concat returns a table with the given name and schema whose rows are
// the parts' rows in order. Columns are selected from each part by
// name (parts may carry wider schemas or different column orders, e.g.
// an in-memory part returning every column next to an RCFile part
// returning the requested subset). Views are compacted first; the
// result's vectors may alias a single part's, so the table is marked
// shared.
func Concat(name string, schema Schema, parts ...*Table) *Table {
	dense := make([]*Table, 0, len(parts))
	for _, p := range parts {
		if p.NumRows() == 0 {
			continue
		}
		if p.sel != nil {
			p = p.Compacted()
		}
		dense = append(dense, p)
	}
	if len(dense) == 0 {
		return NewTable(name, schema)
	}
	cols := make([]*Vector, len(schema))
	for ci, c := range schema {
		vecs := make([]*Vector, len(dense))
		for pi, p := range dense {
			vecs[pi] = p.Cols[p.Schema.Col(c.Name)]
		}
		cols[ci] = concatVecs(c.Type, vecs)
	}
	return NewTable(name, schema, cols...)
}

// concatVecs concatenates non-empty column vectors of one type.
func concatVecs(typ Type, vecs []*Vector) *Vector {
	if len(vecs) == 1 {
		return vecs[0]
	}
	total := 0
	for _, v := range vecs {
		total += v.Len()
	}
	switch typ {
	case Int:
		out := make([]int64, 0, total)
		for _, v := range vecs {
			out = append(out, v.Ints...)
		}
		return IntsV(out)
	case Float:
		out := make([]float64, 0, total)
		for _, v := range vecs {
			out = append(out, v.Floats...)
		}
		return FloatsV(out)
	}
	oneDict := true
	for _, v := range vecs {
		oneDict = oneDict && v.IsDict() && sameDict(v, vecs[0])
	}
	if oneDict {
		codes := make([]uint32, 0, total)
		for _, v := range vecs {
			codes = append(codes, v.Dict...)
		}
		return DictV(codes, vecs[0].DictVals)
	}
	out := make([]string, 0, total)
	for _, v := range vecs {
		out = append(out, v.DecodeStrs()...)
	}
	return StrsV(out)
}

// Head returns a zero-copy table over t's first n rows (t itself when n
// covers the table). t must be dense (no selection vector) with flat or
// dict vectors — the base-table shapes the generator emits. The HTAP
// store uses it to split a generated table into the base part that
// stays resident and the held-back suffix that replays through the
// write path.
func Head(t *Table, n int) *Table {
	if n >= t.NumRows() {
		return t
	}
	if t.sel != nil {
		panic("relal: Head of a view")
	}
	cols := make([]*Vector, len(t.Cols))
	for i, v := range t.Cols {
		switch {
		case v.Kind == Int:
			cols[i] = IntsV(v.Ints[:n])
		case v.Kind == Float:
			cols[i] = FloatsV(v.Floats[:n])
		case v.DictVals != nil:
			cols[i] = DictV(v.Dict[:n], v.DictVals)
		default:
			cols[i] = StrsV(v.Strs[:n])
		}
	}
	return NewTable(t.Name, t.Schema, cols...)
}
