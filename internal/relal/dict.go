// Dictionary-encoded string columns. A Str vector may carry its cells
// as uint32 codes into a shared, sorted dictionary instead of a
// []string: code order equals value order, so every comparison a kernel
// makes on the strings — equality in a filter, a range predicate, a
// sort key, a group-by key — can run on the codes without ever touching
// the bytes. TPC-H is full of such columns (l_returnflag has 3 values,
// l_shipmode 7, o_orderpriority 5, dates ~2.4k), which is where the
// paper's RCFile CPU burn came from: decompressing and comparing raw
// strings a column store never materializes.
//
// The encoding is transparent: a dict vector has Kind == Str, decodes
// to exactly the same strings, and every operator output is
// byte-identical to the raw-string execution (the differential suite in
// dict_test.go locks this at several worker counts). Filters get the
// real win through the StrVec predicate factories below, which
// translate a string predicate into a code comparison once per vector:
// equality becomes one code probe, ordering becomes a code threshold
// (the dictionary is sorted), and prefix matching becomes a code range.
package relal

import (
	"slices"
	"sort"
	"strings"
)

// IsDict reports whether v stores its strings dictionary-encoded.
// DictVals is the marker so an empty dict vector (zero codes, zero
// values) still counts.
func (v *Vector) IsDict() bool { return v.Kind == Str && v.DictVals != nil }

// DictV wraps pre-built codes and a sorted dictionary as a column
// vector (no copy). Every code must index vals and vals must be sorted
// ascending with no duplicates — code order is value order.
func DictV(codes []uint32, vals []string) *Vector {
	if vals == nil {
		vals = []string{}
	}
	return &Vector{Kind: Str, Dict: codes, DictVals: vals}
}

// EncodeDict dictionary-encodes xs: the distinct values become the
// sorted dictionary and each cell its code. The input slice is not
// retained.
func EncodeDict(xs []string) *Vector {
	seen := make(map[string]uint32)
	vals := []string{}
	for _, s := range xs {
		if _, ok := seen[s]; !ok {
			seen[s] = 0
			vals = append(vals, s)
		}
	}
	sort.Strings(vals)
	for i, v := range vals {
		seen[v] = uint32(i)
	}
	codes := make([]uint32, len(xs))
	for i, s := range xs {
		codes[i] = seen[s]
	}
	return DictV(codes, vals)
}

// StrAt returns the string at physical index p, decoding a dict vector.
func (v *Vector) StrAt(p int32) string {
	if v.DictVals != nil {
		return v.DictVals[v.Dict[p]]
	}
	return v.Strs[p]
}

// DecodeStrs materializes the vector's strings (the output-boundary
// decode). For a raw vector this is the backing slice itself, no copy.
func (v *Vector) DecodeStrs() []string {
	if !v.IsDict() {
		return v.Strs
	}
	out := make([]string, len(v.Dict))
	for i, c := range v.Dict {
		out[i] = v.DictVals[c]
	}
	return out
}

// decodeToRaw converts a dict vector to plain strings in place. Callers
// must own the vector (AppendRow privatizes first).
func (v *Vector) decodeToRaw() {
	if !v.IsDict() {
		return
	}
	v.Strs = v.DecodeStrs()
	v.Dict, v.DictVals = nil, nil
}

// sameDict reports whether two dict vectors' codes are directly
// comparable: they share one dictionary (the same backing array) or
// carry equal ones. Dictionaries are sorted and duplicate-free, so equal
// contents mean equal code assignments — which is what parts decoded
// from separate files, or shipped over the wire, of one generated table
// present: the same dictionary in different slices.
func sameDict(a, b *Vector) bool {
	if len(a.DictVals) != len(b.DictVals) {
		return false
	}
	if len(a.DictVals) == 0 || &a.DictVals[0] == &b.DictVals[0] {
		return true
	}
	return slices.Equal(a.DictVals, b.DictVals)
}

// DictCodeWidth returns the bytes per code of a dictionary of n values
// packed at its full width: 1, 2, or 4 — what AvgRowBytes charges a
// dict column per row and what DictEncodedBytes models. (RCF gdict
// chunks pack narrower, by the group's code span: FORWidth.)
func DictCodeWidth(n int) int {
	switch {
	case n <= 1<<8:
		return 1
	case n <= 1<<16:
		return 2
	}
	return 4
}

// DictEncodedBytes is the modeled size of a dict-encoded column of
// rows cells: the dictionary as an RCF footer stores it (u32 count,
// length-prefixed values, plus one code-width byte) and the codes at
// DictCodeWidth. With rows = 0 it is the file-global dictionary alone,
// which the scan byte accounting spreads over the row groups;
// cmd/scanstats reports it per column as the dictionary-encoding ratio.
func DictEncodedBytes(vals []string, rows int) int64 {
	b := int64(4 + 1) // dict count + code width byte
	for _, s := range vals {
		b += 4 + int64(len(s))
	}
	return b + int64(rows)*int64(DictCodeWidth(len(vals)))
}

// lowerBound returns the first index in the sorted dictionary with
// vals[i] >= s — the code threshold for >= / < predicates.
func lowerBound(vals []string, s string) uint32 {
	return uint32(sort.SearchStrings(vals, s))
}

// upperBound returns the first index with vals[i] > s — the threshold
// for > / <= predicates.
func upperBound(vals []string, s string) uint32 {
	return uint32(sort.Search(len(vals), func(i int) bool { return vals[i] > s }))
}

// The StrVec predicate factories below compile a string predicate into
// a Pred (pred.go). On a dict-backed accessor the string comparison
// happens once, against the dictionary, and the per-row closure
// compares uint32 codes; on a raw accessor the closure compares strings
// — the row set is identical either way, so queries use the factories
// unconditionally.

// codePred builds a code-interval predicate [lo, hi) over a
// dict-backed accessor.
func (v StrVec) codePred(lo, hi uint32) Pred {
	if lo >= hi {
		return Pred{at: func(int) bool { return false }}
	}
	dict, sel := v.dict, v.sel
	if sel == nil {
		return Pred{at: func(i int) bool { c := dict[i]; return c >= lo && c < hi }}
	}
	return Pred{at: func(i int) bool { c := dict[sel[i]]; return c >= lo && c < hi }}
}

// codeTest builds a Pred from an arbitrary per-code test (the In
// bitmap) over a dict-backed accessor.
func (v StrVec) codeTest(test func(c uint32) bool) Pred {
	dict, sel := v.dict, v.sel
	if sel == nil {
		return Pred{at: func(i int) bool { return test(dict[i]) }}
	}
	return Pred{at: func(i int) bool { return test(dict[sel[i]]) }}
}

// rawPred builds a string predicate over a raw accessor.
func (v StrVec) rawPred(ok func(s string) bool) Pred {
	data, sel := v.data, v.sel
	if sel == nil {
		return Pred{at: func(i int) bool { return ok(data[i]) }}
	}
	return Pred{at: func(i int) bool { return ok(data[sel[i]]) }}
}

// Eq returns a predicate for Get(i) == val. Dict-backed: one code probe
// per row.
func (v StrVec) Eq(val string) Pred {
	if v.dict != nil {
		c := lowerBound(v.vals, val)
		if int(c) >= len(v.vals) || v.vals[c] != val {
			return Pred{at: func(int) bool { return false }}
		}
		return v.codePred(c, c+1)
	}
	return v.rawPred(func(s string) bool { return s == val })
}

// Ne returns a predicate for Get(i) != val.
func (v StrVec) Ne(val string) Pred {
	if v.dict != nil {
		c := lowerBound(v.vals, val)
		if int(c) >= len(v.vals) || v.vals[c] != val {
			return Pred{at: func(int) bool { return true }}
		}
		return v.codeTest(func(x uint32) bool { return x != c })
	}
	return v.rawPred(func(s string) bool { return s != val })
}

// Lt returns a predicate for Get(i) < val (code threshold on dict).
func (v StrVec) Lt(val string) Pred {
	if v.dict != nil {
		return v.codePred(0, lowerBound(v.vals, val))
	}
	return v.rawPred(func(s string) bool { return s < val })
}

// Le returns a predicate for Get(i) <= val.
func (v StrVec) Le(val string) Pred {
	if v.dict != nil {
		return v.codePred(0, upperBound(v.vals, val))
	}
	return v.rawPred(func(s string) bool { return s <= val })
}

// Ge returns a predicate for Get(i) >= val.
func (v StrVec) Ge(val string) Pred {
	if v.dict != nil {
		return v.codePred(lowerBound(v.vals, val), uint32(len(v.vals)))
	}
	return v.rawPred(func(s string) bool { return s >= val })
}

// Gt returns a predicate for Get(i) > val.
func (v StrVec) Gt(val string) Pred {
	if v.dict != nil {
		return v.codePred(upperBound(v.vals, val), uint32(len(v.vals)))
	}
	return v.rawPred(func(s string) bool { return s > val })
}

// Range returns a predicate for lo <= Get(i) < hi — the half-open
// interval every TPC-H date-window filter uses.
func (v StrVec) Range(lo, hi string) Pred {
	if v.dict != nil {
		return v.codePred(lowerBound(v.vals, lo), lowerBound(v.vals, hi))
	}
	return v.rawPred(func(s string) bool { return s >= lo && s < hi })
}

// Between returns a predicate for lo <= Get(i) <= hi (both inclusive).
func (v StrVec) Between(lo, hi string) Pred {
	if v.dict != nil {
		return v.codePred(lowerBound(v.vals, lo), upperBound(v.vals, hi))
	}
	return v.rawPred(func(s string) bool { return s >= lo && s <= hi })
}

// In returns a predicate for Get(i) ∈ set. Dict-backed: a bitmap over
// the dictionary, one indexed load per row.
func (v StrVec) In(set ...string) Pred {
	if v.dict != nil {
		member := make([]bool, len(v.vals))
		any := false
		for _, val := range set {
			c := lowerBound(v.vals, val)
			if int(c) < len(v.vals) && v.vals[c] == val {
				member[c] = true
				any = true
			}
		}
		if !any {
			return Pred{at: func(int) bool { return false }}
		}
		return v.codeTest(func(c uint32) bool { return member[c] })
	}
	m := make(map[string]bool, len(set))
	for _, val := range set {
		m[val] = true
	}
	return v.rawPred(func(s string) bool { return m[s] })
}

// HasPrefix returns a predicate for strings.HasPrefix(Get(i), prefix).
// In a sorted dictionary the values sharing a prefix are contiguous, so
// the dict-backed predicate is a code range.
func (v StrVec) HasPrefix(prefix string) Pred {
	if v.dict != nil {
		lo := lowerBound(v.vals, prefix)
		hi := lo
		for int(hi) < len(v.vals) && strings.HasPrefix(v.vals[hi], prefix) {
			hi++
		}
		return v.codePred(lo, hi)
	}
	return v.rawPred(func(s string) bool { return strings.HasPrefix(s, prefix) })
}
