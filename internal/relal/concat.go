// Multi-part table concatenation: the HTAP scan path answers queries
// over a base part, zero or more converted delta parts, and the
// unconverted delta tail, stitched back together in row order. The
// stitching preserves encodings where the parts agree — same-dictionary
// codes concatenate without decoding — merges dictionaries when parts
// disagree (an RCF part carries its own file-global dictionary), and
// degrades a column to raw strings only when some part is raw,
// mirroring the per-column rules the RCF reader applies across row
// groups.
package relal

import "sort"

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
	if len(dense) == 1 && schemaMatches(dense[0].Schema, schema) {
		return dense[0]
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

func schemaMatches(got, want Schema) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			return false
		}
	}
	return true
}

// concatVecs concatenates non-empty column vectors of one type.
func concatVecs(typ Type, vecs []*Vector) *Vector {
	if len(vecs) == 1 {
		return vecs[0]
	}
	if typ == Str {
		return concatStrVecs(vecs)
	}
	total := 0
	for _, v := range vecs {
		total += v.Len()
	}
	if typ == Int {
		out := make([]int64, 0, total)
		for _, v := range vecs {
			out = append(out, v.Ints...)
		}
		return IntsV(out)
	}
	out := make([]float64, 0, total)
	for _, v := range vecs {
		out = append(out, v.Floats...)
	}
	return FloatsV(out)
}

// concatStrVecs concatenates Str vectors. All parts dict-encoded over
// one dictionary — the same slice, or equal contents in separate slices
// (sameDict) — codes concatenate. All dict but dictionaries differ: the
// dictionaries merge into one sorted union and each part's codes remap.
// Any raw part: the whole column degrades to raw strings — the same
// rule the RCF reader applies when any chunk of a column was written
// plain.
func concatStrVecs(vecs []*Vector) *Vector {
	allDict, oneDict := true, true
	for _, v := range vecs {
		if !v.IsDict() {
			allDict = false
			break
		}
		if !sameDict(v, vecs[0]) {
			oneDict = false
		}
	}
	if !allDict {
		total := 0
		for _, v := range vecs {
			total += v.Len()
		}
		out := make([]string, 0, total)
		for _, v := range vecs {
			out = append(out, v.DecodeStrs()...)
		}
		return StrsV(out)
	}
	total := 0
	for _, v := range vecs {
		total += v.Len()
	}
	if oneDict {
		codes := make([]uint32, 0, total)
		for _, v := range vecs {
			codes = append(codes, v.Dict...)
		}
		return DictV(codes, vecs[0].DictVals)
	}
	// Dictionaries differ: merge into one sorted union and remap.
	merged, remaps := mergeDicts(vecs)
	codes := make([]uint32, 0, total)
	for pi, v := range vecs {
		remap := remaps[pi]
		for _, c := range v.Dict {
			codes = append(codes, remap[c])
		}
	}
	return DictV(codes, merged)
}

// mergeDicts unions the parts' sorted dictionaries into one sorted,
// deduplicated dictionary and returns, per part, the old-code → new-code
// remap table.
func mergeDicts(vecs []*Vector) ([]string, [][]uint32) {
	var union []string
	for _, v := range vecs {
		union = append(union, v.DictVals...)
	}
	sort.Strings(union)
	merged := union[:0]
	for i, s := range union {
		if i == 0 || s != merged[len(merged)-1] {
			merged = append(merged, s)
		}
	}
	remaps := make([][]uint32, len(vecs))
	for pi, v := range vecs {
		remap := make([]uint32, len(v.DictVals))
		for code, s := range v.DictVals {
			remap[code] = uint32(sort.SearchStrings(merged, s))
		}
		remaps[pi] = remap
	}
	return merged, remaps
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
