package relal

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzJoinKeys fuzzes the join's key table in every representation:
// arbitrary bytes become build/probe key columns — heavily duplicated by
// a fuzz-chosen modulus (the slot array), or kept as raw 64-bit keys (a
// sparse span takes the packed-key map, both int64 extremes the byte-key
// map) — and Join/SemiJoin/AntiJoin must equal the naive oracle
// (join_test.go) at every worker count, and again with a filtered join
// output of the two as the probe side. The morsel size is shrunk so even
// tiny fuzz inputs cross the multi-morsel probe.
func FuzzJoinKeys(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte("duplicate keys duplicate keys duplicate keys"))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01})
	// Raw keys, cut after word 0 (which holds the layout bytes and is
	// the probe key 0x1e0): a wide sparse build, then both extremes.
	rawKeys := func(keys ...int64) []byte {
		b := []byte{0xe0, 1, 0, 0, 0, 0, 0, 0}
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint64(b, uint64(k))
		}
		return b
	}
	f.Add(rawKeys(0x1e0, 1<<40, -7, 0x1e0))
	f.Add(rawKeys(math.MaxInt64, 0x1e0, math.MinInt64, math.MinInt64+1, 0x1e0))
	f.Fuzz(func(t *testing.T, data []byte) {
		old := joinMorselRows
		joinMorselRows = 4
		defer func() { joinMorselRows = old }()

		// Layout: byte 0 picks the key cardinality modulus (0xe0 and
		// up: none, raw keys), byte 1 the build/probe split; the data
		// becomes 8-byte int keys (tail bytes pad with zero, planting
		// duplicate zero keys).
		var mod int64 = 1
		var split = 0
		if len(data) > 0 {
			mod = int64(data[0])%31 + 1
			if data[0] >= 0xe0 {
				mod = 0
			}
		}
		if len(data) > 1 {
			split = int(data[1])
		}
		words := (len(data) + 7) / 8
		keys := make([]int64, words)
		for i := range keys {
			var w [8]byte
			copy(w[:], data[i*8:])
			keys[i] = int64(binary.LittleEndian.Uint64(w[:]))
			if mod > 0 {
				keys[i] %= mod
			}
		}
		cut := 0
		if words > 0 {
			cut = split % (words + 1)
		}
		lKeys, rKeys := keys[:cut], keys[cut:]

		left := NewTable("l", Schema{{Name: "lk", Type: Int}}, IntsV(lKeys))
		right := NewTable("r", Schema{{Name: "rk", Type: Int}}, IntsV(rKeys))

		join, semi, anti := oracleJoin(RowsOf(left), RowsOf(right), 0, 0)
		for _, workers := range diffWorkers() {
			if err := checkJoins(workers, left, right, "lk", "rk", join, semi, anti); err != nil {
				t.Fatal(err)
			}
		}

		// Probe again with a filtered join output, whose two columns
		// read through different selections (bounded so the oracle's
		// nested loop stays small).
		if len(join) > 1024 {
			return
		}
		e := &Exec{Parallelism: 1}
		view := e.Filter(e.Join(left, right, "lk", "rk"), func(i int) bool { return i%3 != 1 })
		join, semi, anti = oracleJoin(RowsOf(view), RowsOf(right), 0, 0)
		for _, workers := range diffWorkers() {
			if err := checkJoins(workers, view, right, "lk", "rk", join, semi, anti); err != nil {
				t.Fatalf("filtered join output: %v", err)
			}
		}
	})
}

// FuzzSortKeys fuzzes the sort and the fused top-K: arbitrary bytes
// become a two-key column pair (an int key folded to a fuzz-chosen
// modulus for heavy duplication, plus a derived float key planting NaN
// and signed zero), and Sort must equal the naive oracle (sort_test.go),
// TopK its first k rows, at every worker count. The morsel size is
// shrunk so tiny inputs still merge several per-morsel heaps.
func FuzzSortKeys(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 9, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte("duplicate keys duplicate keys duplicate keys"))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		old := sortMorselRows
		sortMorselRows = 4
		defer func() { sortMorselRows = old }()

		// Layout: byte 0 picks the key cardinality modulus, byte 1 the
		// top-K bound; the rest becomes 8-byte int keys (tail bytes pad
		// with zero, planting duplicate zero keys).
		var mod int64 = 1
		k := 0
		if len(data) > 0 {
			mod = int64(data[0])%31 + 1
		}
		words := (len(data) + 7) / 8
		if len(data) > 1 {
			k = int(data[1]) % (words + 2)
		}
		ints := make([]int64, words)
		floats := make([]float64, words)
		pos := make([]int64, words)
		for i := range ints {
			var w [8]byte
			copy(w[:], data[i*8:])
			x := int64(binary.LittleEndian.Uint64(w[:])) % mod
			ints[i] = x
			switch x % 5 {
			case 0:
				floats[i] = math.NaN()
			case 1:
				floats[i] = math.Copysign(0, -1)
			default:
				floats[i] = float64(x) / 2
			}
			pos[i] = int64(i)
		}
		in := NewTable("s", Schema{
			{Name: "ki", Type: Int},
			{Name: "kf", Type: Float},
			{Name: "pos", Type: Int},
		}, IntsV(ints), FloatsV(floats), IntsV(pos))
		keys := []OrderSpec{{Col: "kf"}, {Col: "ki", Desc: true}}

		want := oracleSort(in.Schema, RowsOf(in), keys)
		for _, workers := range diffWorkers() {
			e := &Exec{Parallelism: workers}
			if err := sameRows(RowsOf(e.Sort(in, keys...)), want); err != nil {
				t.Fatalf("workers=%d Sort: %v", workers, err)
			}
			if err := sameRows(RowsOf(e.TopK(in, k, keys...)), want[:min(k, words)]); err != nil {
				t.Fatalf("workers=%d TopK(k=%d): %v", workers, k, err)
			}
		}
	})
}

// FuzzGroupKeys fuzzes the group-by key encodings, the multi-morsel
// merge and the ordered path: arbitrary bytes become base rows over four
// key columns (Int with both extremes, Float with NaN payloads and
// signed zero, raw Str with NUL bytes, dict Str), byte 0 picks which of
// them group, and the base rows are tiled past two morsels — later base
// rows entering later, so some groups are first seen in a later morsel.
// A second shape repeats the base rows three times and stably sorts them
// on ki, so ki can lead the ordered path with the other columns as the
// rest of the key. Aggregate at workers {1, 3} must equal the naive
// oracle (agg_test.go) on both shapes.
func FuzzGroupKeys(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0f, 0, 0, 0, 0, 1, 1, 1, 1})
	f.Add([]byte{0x04, 9, 9, 3, 9, 9, 9, 4, 9})
	f.Add([]byte("\x0bduplicate keys duplicate keys duplicate keys"))
	// ki 0, 1, 2 (sorted: short runs), NaN payloads, ±0, NUL strings.
	f.Add([]byte{0x0f, 0, 2, 1, 3, 0, 3, 1, 3, 0, 0, 3, 1, 0, 1, 3, 1, 1, 2, 0, 0, 1, 3, 0, 0, 2, 0, 4, 2, 2, 1, 4, 2})
	f.Add(append([]byte{0x0b}, make([]byte, 4*maxOrderedRun)...)) // one ki run past the bound
	ints := []int64{0, math.MinInt64, math.MaxInt64, -1, 1, 1 << 40}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), otherNaN, math.Inf(-1), 2.5}
	strs := []string{"", "\x00", "a", "a\x00", "\x00b", "ab", "b"}
	names := []string{"ki", "kf", "ks", "kd"}
	sch := Schema{{Name: "ki", Type: Int}, {Name: "kf", Type: Float},
		{Name: "ks", Type: Str}, {Name: "kd", Type: Str}, {Name: "v", Type: Float}}
	aggs := []AggSpec{{Fn: "count", Col: "*", As: "n"}, {Fn: "sum", Col: "v", As: "sv"}, {Fn: "min", Col: "v", As: "mv"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys []string
		if len(data) > 0 {
			for j, name := range names {
				if data[0]>>j&1 == 1 {
					keys = append(keys, name)
				}
			}
			data = data[1:]
		}
		base := len(data)/4 + 1 // base row b reads bytes 4b…4b+3, zero-padded
		cell := func(b, c int) int {
			if 4*b+c < len(data) {
				return int(data[4*b+c])
			}
			return 0
		}
		// rowsOf builds n rows, row i a copy of base row baseOf(i).
		rowsOf := func(n int, baseOf func(i int) int) *Table {
			ki, kf, v := make([]int64, n), make([]float64, n), make([]float64, n)
			ks, kd := make([]string, n), make([]string, n)
			for i := 0; i < n; i++ {
				b := baseOf(i)
				ki[i] = ints[cell(b, 0)%len(ints)]
				kf[i] = floats[cell(b, 1)%len(floats)]
				ks[i] = strs[cell(b, 2)%len(strs)]
				kd[i] = strs[cell(b, 3)%len(strs)]
				v[i] = float64(i%97)/8 - 3
			}
			return NewTable("g", sch, IntsV(ki), FloatsV(kf), StrsV(ks), EncodeDict(kd), FloatsV(v))
		}
		n := 2*MorselRows + 77
		tiled := rowsOf(n, func(i int) int { return i % (1 + i*base/n) })
		sorted := (&Exec{}).Sort(rowsOf(3*base, func(i int) int { return i % base }), OrderSpec{Col: "ki"})
		for shape, tb := range map[string]*Table{"tiled": tiled, "sorted on ki": sorted} {
			want := oracleAggregate(sch, RowsOf(tb), keys, aggs)
			for _, workers := range []int{1, 3} {
				got := (&Exec{Parallelism: workers}).Aggregate(tb, keys, aggs)
				if err := sameRows(RowsOf(got), want); err != nil {
					t.Fatalf("%s keys=%v workers=%d: %v", shape, keys, workers, err)
				}
			}
		}
	})
}

// FuzzPredCond drives checkPredCond (pred_test.go) from arbitrary
// bytes: column contents, their order, each condition's bounds and
// flags. Past the input's end every byte reads as zero.
func FuzzPredCond(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{63, 11, 13, 15, 3, 4, 5, 1, 1, 2, 2, 0, 0, 15, 3, 10, 1, 2, 3, 4, 5, 6, 13, 0, 2, 5, 1, 9})
	f.Add([]byte{199, 10, 12, 14, 0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 1, 7, 3, 5, 0, 12, 11, 6, 15, 18, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		checkPredCond(t, next)
	})
}
