package relal

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// dictPool is the value pool the differential tables draw from: heavy
// duplication, an empty-string sentinel, shared prefixes, and values
// that straddle each other lexicographically.
var dictPool = []string{
	"", "A", "AB", "ABC", "N", "R", "REG AIR", "REG", "air", "mail",
	"1-URGENT", "2-HIGH", "1994-01-01", "1994-06-15", "1995-01-01",
}

// dictPair builds the same logical table twice: once with raw string
// columns, once with the Str columns dictionary-encoded. Every operator
// result over the two must render identically.
func dictPair(rows int, seed int64) (raw, dict *Table) {
	rng := rand.New(rand.NewSource(seed))
	ss := make([]string, rows)
	s2 := make([]string, rows)
	xs := make([]int64, rows)
	for i := 0; i < rows; i++ {
		ss[i] = dictPool[rng.Intn(len(dictPool))]
		s2[i] = dictPool[rng.Intn(len(dictPool))]
		xs[i] = rng.Int63n(50)
	}
	sch := Schema{
		{Name: "s", Type: Str},
		{Name: "s2", Type: Str},
		{Name: "x", Type: Int},
	}
	raw = NewTable("t", sch, StrsV(ss), StrsV(s2), IntsV(xs))
	dict = NewTable("t", sch, EncodeDict(ss), EncodeDict(s2), IntsV(xs))
	return raw, dict
}

func dictWorkerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// TestDictDifferential runs every kernel over raw-string and
// dict-encoded copies of randomized low-cardinality data, at several
// worker-pool sizes, and requires bit-identical rendered output — the
// encoding must be invisible to every operator, including through
// views, empty inputs, and the "" sentinel.
func TestDictDifferential(t *testing.T) {
	oldJoin, oldSort := joinMorselRows, sortMorselRows
	joinMorselRows, sortMorselRows = 8, 8
	defer func() { joinMorselRows, sortMorselRows = oldJoin, oldSort }()

	for _, rows := range []int{0, 1, 37, 500} {
		raw, dict := dictPair(rows, int64(rows)+1)
		rawR, dictR := dictPair(rows/2+3, int64(rows)+2)
		for _, workers := range dictWorkerCounts() {
			name := fmt.Sprintf("rows=%d/workers=%d", rows, workers)
			e := &Exec{Parallelism: workers}

			// Filter through the predicate factories (code ranges on the
			// dict side) and through Get-based closures.
			fr := e.Where(raw, StrRange("s", "AB", "REG").On(raw))
			fd := e.Where(dict, StrRange("s", "AB", "REG").On(dict))
			if render(fr) != render(fd) {
				t.Fatalf("%s: Filter(Range) drifts", name)
			}
			gr := raw.StrCol("s2")
			gd := dict.StrCol("s2")
			if render(e.Filter(raw, func(i int) bool { return gr.Get(i) > "R" })) !=
				render(e.Filter(dict, func(i int) bool { return gd.Get(i) > "R" })) {
				t.Fatalf("%s: Filter(Get) drifts", name)
			}

			// Aggregate: dict group keys (codes), sums, min/max.
			aggs := []AggSpec{
				{Fn: "sum", Col: "x", As: "sx"},
				{Fn: "count", Col: "*", As: "n"},
				{Fn: "min", Col: "x", As: "mn"},
				{Fn: "max", Col: "x", As: "mx"},
			}
			ar := e.Aggregate(raw, []string{"s"}, aggs)
			ad := e.Aggregate(dict, []string{"s"}, aggs)
			if render(ar) != render(ad) {
				t.Fatalf("%s: Aggregate drifts", name)
			}
			// ...and over views (aggregate of a filtered table).
			if render(e.Aggregate(fr, []string{"s", "s2"}, aggs[:2])) !=
				render(e.Aggregate(fd, []string{"s", "s2"}, aggs[:2])) {
				t.Fatalf("%s: Aggregate-over-view drifts", name)
			}

			// Sort and TopK on (str, int) keys; dict compares codes.
			keys := []OrderSpec{{Col: "s", Desc: true}, {Col: "x"}}
			if render(e.Sort(raw, keys...)) != render(e.Sort(dict, keys...)) {
				t.Fatalf("%s: Sort drifts", name)
			}
			if render(e.TopK(raw, rows/3+1, keys...)) != render(e.TopK(dict, rows/3+1, keys...)) {
				t.Fatalf("%s: TopK drifts", name)
			}

			// Join on the Int key: the gather moves codes on the dict
			// side, strings on the raw side.
			if render(e.Join(raw, rawR, "x", "x")) != render(e.Join(dict, dictR, "x", "x")) {
				t.Fatalf("%s: Join drifts", name)
			}
		}
	}
}

// TestDictPredicateFactories checks every string condition and StrVec
// factory against the plain string semantics, on both representations,
// for boundary values that are present, absent, below the minimum, and
// past the maximum.
func TestDictPredicateFactories(t *testing.T) {
	raw, dict := dictPair(200, 17)
	probes := append([]string{}, dictPool...)
	probes = append(probes, "0", "REG AIRX", "zzz", "AA", "1994")
	for _, tb := range []*Table{raw, dict} {
		v := tb.StrCol("s")
		for _, p := range probes {
			checks := []struct {
				name string
				pred Pred
				want func(s string) bool
			}{
				{"StrEq", StrEq("s", p).On(tb), func(s string) bool { return s == p }},
				{"Ne", v.Ne(p), func(s string) bool { return s != p }},
				{"StrLess", StrLess("s", p).On(tb), func(s string) bool { return s < p }},
				{"StrAtMost", StrAtMost("s", p).On(tb), func(s string) bool { return s <= p }},
				{"StrGreater", StrGreater("s", p).On(tb), func(s string) bool { return s > p }},
				{"StrRange", StrRange("s", "AB", p).On(tb), func(s string) bool { return s >= "AB" && s < p }},
				{"StrBetween", StrBetween("s", p, "REG").On(tb), func(s string) bool { return s >= p && s <= "REG" }},
				{"In", v.In(p, "R"), func(s string) bool { return s == p || s == "R" }},
				{"HasPrefix", v.HasPrefix(p), func(s string) bool { return strings.HasPrefix(s, p) }},
			}
			for i := 0; i < tb.NumRows(); i++ {
				s := v.Get(i)
				for _, c := range checks {
					if got := c.pred.At(i); got != c.want(s) {
						t.Fatalf("%s(%q) at row %d (%q): got %v want %v", c.name, p, i, s, got, !got)
					}
				}
			}
		}
	}
}

// TestDictParallelAggregateCrossesMorsels pushes a dict table past the
// fixed scan-morsel size so the morsel-parallel aggregate kernel (not
// just the serial fallback) runs over codes.
func TestDictParallelAggregateCrossesMorsels(t *testing.T) {
	rows := 2*MorselRows + 77
	raw, dict := dictPair(rows, 23)
	aggs := []AggSpec{{Fn: "sum", Col: "x", As: "sx"}, {Fn: "min", Col: "x", As: "mn"}}
	keys := []string{"s", "s2"}
	want := render((&Exec{Parallelism: 1}).Aggregate(raw, keys, aggs))
	for _, workers := range []int{1, 3, 8} {
		e := &Exec{Parallelism: workers}
		if got := render(e.Aggregate(dict, keys, aggs)); got != want {
			t.Fatalf("workers=%d: parallel dict aggregate drifts", workers)
		}
	}
}

// TestEncodeDictRoundTrip: codes decode back to the input, the
// dictionary is sorted and duplicate-free, and Len/StrAt agree.
func TestEncodeDictRoundTrip(t *testing.T) {
	xs := []string{"b", "", "a", "b", "c", "a", ""}
	v := EncodeDict(xs)
	if !v.IsDict() {
		t.Fatal("EncodeDict must return a dict vector")
	}
	if v.Len() != len(xs) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(xs))
	}
	if !sort.StringsAreSorted(v.DictVals) {
		t.Fatalf("dictionary not sorted: %q", v.DictVals)
	}
	for i := 1; i < len(v.DictVals); i++ {
		if v.DictVals[i] == v.DictVals[i-1] {
			t.Fatalf("duplicate dictionary value %q", v.DictVals[i])
		}
	}
	for i, want := range xs {
		if got := v.StrAt(int32(i)); got != want {
			t.Fatalf("cell %d = %q, want %q", i, got, want)
		}
	}
	got := v.DecodeStrs()
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("DecodeStrs[%d] = %q, want %q", i, got[i], xs[i])
		}
	}
}

// TestDictAvgRowBytesSmaller: the encoded width the cost models see
// must shrink under dictionary encoding for duplicated strings.
func TestDictAvgRowBytesSmaller(t *testing.T) {
	raw, dict := dictPair(1000, 31)
	if rb, db := raw.AvgRowBytes(), dict.AvgRowBytes(); db >= rb {
		t.Errorf("dict AvgRowBytes %d, want < raw %d", db, rb)
	}
}

// TestDictZoneOf: zone maps over dict vectors carry both code and
// string bounds, and they agree through the dictionary.
func TestDictZoneOf(t *testing.T) {
	v := EncodeDict([]string{"m", "c", "x", "c", "m"})
	z := ZoneOf(v, 1, 4) // cells c, x, c
	if !z.HasCodes {
		t.Fatal("dict zone must carry codes")
	}
	if z.StrMin != "c" || z.StrMax != "x" {
		t.Errorf("zone strings = [%q, %q]", z.StrMin, z.StrMax)
	}
	if v.DictVals[z.CodeMin] != z.StrMin || v.DictVals[z.CodeMax] != z.StrMax {
		t.Errorf("zone codes disagree with strings: [%d, %d]", z.CodeMin, z.CodeMax)
	}
}
