package dist

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// spineAggPrefix is a cut prefix whose spine starts with an aggregate,
// as Q18's does, with a threshold low enough to keep rows at the golden
// scale (Q18's keeps none). It groups by (l_orderkey, l_returnflag),
// whose groups interleave within an order, so a group that carried any
// position but its first row's would break the order the merge rebuilds.
func spineAggPrefix(e *relal.Exec, db *tpch.DB) *relal.Table {
	cols := []string{"l_orderkey", "l_returnflag", "l_quantity"}
	aggs := []relal.AggSpec{{Fn: "sum", Col: "l_quantity", As: "sum_qty"}}
	if slices.ContainsFunc(db.Lineitem.Schema, func(c relal.Column) bool { return c.Name == tpch.PosCol }) {
		cols = append(cols, tpch.PosCol)
		aggs = append(aggs, relal.AggSpec{Fn: "first", Col: tpch.PosCol, As: tpch.PosCol})
	}
	li := e.Project(db.Lineitem, cols...)
	agg := e.Aggregate(li, []string{"l_orderkey", "l_returnflag"}, aggs)
	big := e.Where(agg, relal.FloatGreater("sum_qty", 100).On(agg))
	return e.Join(big, e.Project(db.Orders, "o_orderkey", "o_orderdate"), "l_orderkey", "o_orderkey")
}

// TestDistCutPrefixMerge holds the merge below each cut's suffix to the
// single-process prefix, in process and without a network: at 1, 2 and
// 4 shards, each shard's Project(Prefix, Ship..., PosCol) over its
// BuildShardDB partition must pass checkCutPart, and mergeByPos over
// the shards' answers must equal Project(Prefix(db), Ship...) cell for
// cell. spineAggPrefix stands beside the registered cuts.
func TestDistCutPrefixMerge(t *testing.T) {
	gen := goldenGen()
	e := &relal.Exec{Parallelism: 1}
	cuts := map[string]tpch.Cut{"spine aggregate": {Prefix: spineAggPrefix, Ship: relal.Schema{
		{Name: "l_orderkey", Type: relal.Int}, {Name: "l_returnflag", Type: relal.Str},
		{Name: "o_orderdate", Type: relal.Str}, {Name: "sum_qty", Type: relal.Float}}}}
	for id, cut := range tpch.Cuts {
		cuts[fmt.Sprintf("Q%d", id)] = cut
	}
	db := tpch.Generate(gen)
	shards := map[int][]*tpch.DB{}
	for _, n := range []int{1, 2, 4} {
		for i := range n {
			shards[n] = append(shards[n], BuildShardDB(ShardConfig{Shards: n, Index: i, SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64}))
		}
	}
	for name, cut := range cuts {
		want := e.Project(cut.Prefix(e, db), cut.Ship.Names()...)
		if name == "spine aggregate" && want.NumRows() == 0 {
			t.Fatalf("%s: no prefix rows to merge", name)
		}
		for n, dbs := range shards {
			t.Run(fmt.Sprintf("%s/shards=%d", name, n), func(t *testing.T) {
				parts := make([]*relal.Table, n)
				for i, sdb := range dbs {
					parts[i] = e.Project(cut.Prefix(e, sdb), append(cut.Ship.Names(), tpch.PosCol)...).Compacted()
					if err := checkCutPart(parts[i], cut.Ship); err != nil {
						t.Fatalf("shard %d: %v", i, err)
					}
				}
				got, err := mergeByPos(name, parts)
				if err != nil {
					t.Fatal(err)
				}
				sameCells(t, got, want)
			})
		}
	}
}

// scanParts builds per-shard answers over (k Int, s Str, _pos):
// part i holds the given positions, k = 10×position, and s drawn from
// dicts[i] (nil = raw strings) by position.
func scanParts(dicts [][]string, positions ...[]int64) []*relal.Table {
	schema := relal.Schema{{Name: "k", Type: relal.Int}, {Name: "s", Type: relal.Str}, {Name: tpch.PosCol, Type: relal.Int}}
	parts := make([]*relal.Table, len(positions))
	for i, pos := range positions {
		ks := make([]int64, len(pos))
		codes := make([]uint32, len(pos))
		for j, p := range pos {
			ks[j] = 10 * p
			codes[j] = uint32(p % 3)
		}
		s := relal.DictV(codes, dicts[i])
		if dicts[i] == nil {
			s = relal.StrsV(relal.DictV(codes, []string{"a", "b", "c"}).DecodeStrs())
		}
		parts[i] = relal.NewTable("t", schema, relal.IntsV(ks), s, relal.IntsV(pos))
	}
	return parts
}

// TestDistMergeByPos pins the merge on hand-built parts: rows interleave by
// position whatever the split, equal dictionaries in separate slices
// merge as codes over the first part's dictionary (no union, no
// remap), unequal ones degrade to raw strings with the same values, and
// a position answered twice is a typed error naming the second shard.
func TestDistMergeByPos(t *testing.T) {
	abc := func() []string { return []string{"a", "b", "c"} }
	first := abc()
	splits := map[string][]*relal.Table{
		"interleaved":   scanParts([][]string{first, abc()}, []int64{0, 2, 3, 7}, []int64{1, 4, 5, 6}),
		"one then all":  scanParts([][]string{first, abc()}, []int64{0}, []int64{1, 2, 3, 4, 5, 6, 7}),
		"with an empty": scanParts([][]string{first, abc(), abc()}, []int64{4, 5, 6, 7}, nil, []int64{0, 1, 2, 3}),
		"four ways":     scanParts([][]string{first, abc(), abc(), abc()}, []int64{3, 4}, []int64{0, 7}, []int64{1, 6}, []int64{2, 5}),
	}
	for name, parts := range splits {
		got, err := mergeByPos("t", parts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := []int64{0, 10, 20, 30, 40, 50, 60, 70}; !slices.Equal(got.Cols[0].Ints, want) {
			t.Fatalf("%s: k = %v, want %v", name, got.Cols[0].Ints, want)
		}
		if len(got.Schema) != 2 {
			t.Fatalf("%s: merged schema %v still carries the position column", name, got.Schema.Names())
		}
		s := got.Cols[1]
		if !s.IsDict() || &s.DictVals[0] != &first[0] {
			t.Fatalf("%s: equal dictionaries were rebuilt or decoded", name)
		}
		if want := []string{"a", "b", "c", "a", "b", "c", "a", "b"}; !slices.Equal(s.DecodeStrs(), want) {
			t.Fatalf("%s: s = %v, want %v", name, s.DecodeStrs(), want)
		}
	}

	for name, dicts := range map[string][][]string{
		"unequal dictionaries": {abc(), {"a", "b", "c", "d"}},
		"a raw part":           {abc(), nil},
	} {
		got, err := mergeByPos("t", scanParts(dicts, []int64{0, 3}, []int64{1, 2}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := got.Cols[1]; s.IsDict() || !slices.Equal(s.Strs, []string{"a", "b", "c", "a"}) {
			t.Fatalf("%s: s = %v (dict %v), want raw a b c a", name, s.DecodeStrs(), s.IsDict())
		}
	}

	_, err := mergeByPos("t", scanParts([][]string{abc(), abc(), abc()}, []int64{0, 5}, []int64{1, 2}, []int64{3, 5}))
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Shard != 2 {
		t.Fatalf("position 5 answered by shards 0 and 2: err %v", err)
	}
}

// fakeShard serves the shard protocol with answers of the test's
// making: whatever a real shard could be made to send by a bug or a
// bad disk, the coordinator has to survive. Like a shard, it serves a
// connection's requests in turn on one pair of gob streams, and it
// echoes each request's sequence number unless the answer sets its own.
// It sends every answer copies times.
func fakeShard(t *testing.T, copies int, answer func(Request) (Response, *relal.Table)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
				in, out := newGobIn(), newGobOut()
				for {
					payload, err := ReadFrame(r)
					if err != nil {
						return
					}
					var req Request
					if err := in.decode(payload, &req); err != nil {
						return
					}
					resp, tbl := answer(req)
					if resp.Seq == 0 {
						resp.Seq = req.Seq
					}
					for range copies {
						if writeResponse(w, out, resp, tbl) != nil || w.Flush() != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// cutAnswer answers a cut the way a shard could: the given columns
// over rows at the given positions, which a column named tpch.PosCol
// holds. A column named rev is Float, all zero (Q6 ships it alone); any
// other is a dictionary Str, all "1-URGENT" (Q4 ships o_orderpriority
// alone).
func cutAnswer(cols []string, pos ...int64) (Response, *relal.Table) {
	schema := make(relal.Schema, len(cols))
	vecs := make([]*relal.Vector, len(cols))
	for i, name := range cols {
		switch name {
		case tpch.PosCol:
			schema[i], vecs[i] = relal.Column{Name: name, Type: relal.Int}, relal.IntsV(pos)
		case "rev":
			schema[i], vecs[i] = relal.Column{Name: name, Type: relal.Float}, relal.FloatsV(make([]float64, len(pos)))
		default:
			schema[i], vecs[i] = relal.Column{Name: name, Type: relal.Str}, relal.DictV(make([]uint32, len(pos)), []string{"1-URGENT"})
		}
	}
	return Response{Schema: schema, Rows: len(pos)}, relal.NewTable("prefix", schema, vecs...)
}

// TestDistMalformedAnswers: a shard that answers a cut with bytes that
// pass the frame checksum but break the table's invariants gets the
// retry loop and then a typed partial error — never a panic, never
// rows. The cases named "cut" answer Q4, the rest Q6 (or Q4, where the
// damage needs a dictionary column).
func TestDistMalformedAnswers(t *testing.T) {
	db := tpch.Generate(goldenGen())
	rev := []string{"rev", tpch.PosCol}
	ship := []string{"o_orderpriority", tpch.PosCol}
	cut := func(cols []string, pos ...int64) func(Request) (Response, *relal.Table) {
		return func(Request) (Response, *relal.Table) { return cutAnswer(cols, pos...) }
	}
	// retyped answers like answer, with its first column retyped Int
	// or Str.
	retyped := func(answer func(Request) (Response, *relal.Table), typ relal.Type) func(Request) (Response, *relal.Table) {
		return func(req Request) (Response, *relal.Table) {
			resp, tbl := answer(req)
			resp.Schema = slices.Clone(resp.Schema)
			resp.Schema[0].Type, tbl.Schema = typ, resp.Schema
			tbl.Cols[0] = relal.IntsV(make([]int64, tbl.NumRows()))
			if typ == relal.Str {
				tbl.Cols[0] = relal.StrsV(make([]string, tbl.NumRows()))
			}
			return resp, tbl
		}
	}
	type answers = []func(Request) (Response, *relal.Table)
	cases := map[string]struct {
		q       int
		answers answers
	}{
		"positions out of order": {6, answers{cut(rev, 9, 4)}},
		"code out of range": {4, answers{func(Request) (Response, *relal.Table) {
			resp, tbl := cutAnswer(ship, 4, 9)
			tbl.Cols[0].Dict[1] = 1
			return resp, tbl
		}}},
		"fewer rows than claimed": {6, answers{func(Request) (Response, *relal.Table) {
			resp, tbl := cutAnswer(rev, 4, 9)
			resp.Rows = 3
			return resp, tbl
		}}},
		"a column short": {6, answers{func(Request) (Response, *relal.Table) {
			resp, tbl := cutAnswer(rev, 4, 9)
			resp.Schema = resp.Schema[1:]
			return resp, relal.NewTable(tbl.Name, resp.Schema, tbl.Cols[1:]...)
		}}},
		"two shards, one position":          {6, answers{cut(rev, 4, 9), cut(rev, 5, 9)}},
		"cut positions descending":          {4, answers{cut(ship, 4, 9, 7)}},
		"cut without positions":             {4, answers{cut(ship[:1], 4, 9)}},
		"cut with an extra column":          {4, answers{cut([]string{"o_orderpriority", "o_orderdate", tpch.PosCol}, 4, 9)}},
		"cut, two shards, one position":     {4, answers{cut(ship, 4, 9), cut(ship, 5, 9)}},
		"cut, two shards, two column types": {4, answers{cut(ship, 4, 9), retyped(cut(ship, 5, 8), relal.Int)}},
		"cut with a mistyped column":        {4, answers{retyped(cut(ship, 4, 9), relal.Int)}},
		"mistyped column":                   {6, answers{retyped(cut(rev, 4, 9), relal.Str)}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			addrs := make([]string, len(tc.answers))
			for i, answer := range tc.answers {
				addrs[i] = fakeShard(t, 1, answer)
			}
			c := NewCoordinatorDB(db, addrs, Options{MaxAttempts: 3, BackoffBase: time.Millisecond, ProbeEvery: -1})
			defer c.Close()
			out, err := c.RunQuery(tc.q)
			if !errors.Is(err, ErrPartial) || out != nil {
				t.Fatalf("got table %v, err %v; want a partial error and no table", out != nil, err)
			}
			if len(tc.answers) == 1 && c.Stats()[cRetries] == 0 {
				t.Fatalf("the malformed answer was not retried: %v", c.Stats())
			}
		})
	}

	// The same fakes, answering within the rules, are believed: the
	// cases above fail for the reason they name. A cut may repeat a
	// position within one answer.
	c := NewCoordinatorDB(db, []string{fakeShard(t, 1, cut(rev, 4, 9))}, Options{MaxAttempts: 1, ProbeEvery: -1})
	defer c.Close()
	if _, err := c.RunQuery(6); err != nil {
		t.Fatalf("well-formed answer rejected: %v", err)
	}
	c2 := NewCoordinatorDB(db, []string{fakeShard(t, 1, cut(ship, 4, 9)), fakeShard(t, 1, cut(ship, 5, 5, 8))},
		Options{MaxAttempts: 1, ProbeEvery: -1})
	defer c2.Close()
	out, err := c2.RunQuery(4)
	if err != nil {
		t.Fatalf("well-formed cut answers rejected: %v", err)
	}
	if got := tpch.FormatAnswer(4, out); !strings.HasSuffix(got, "\n1-URGENT|5\n") {
		t.Fatalf("cut answers merged into:\n%s", got)
	}
}

// TestDistSequenceEcho: an answer that does not echo its request's
// sequence number fails the attempt like a malformed one — retried, in
// the end a typed partial error, never rows. That covers a shard that
// answers every request twice, whose spare copy waits on the kept
// session for the next request: Q6's and Q19's cuts both ship rev alone,
// so an answer to one passes every check on a request for the other but
// this one. The fake names each request in its answer (rev is the query
// number), so an answer read for the wrong request would show.
func TestDistSequenceEcho(t *testing.T) {
	db := tpch.Generate(goldenGen())
	keyed := func(req Request) (Response, *relal.Table) {
		resp, tbl := cutAnswer([]string{"rev", tpch.PosCol}, 4, 9)
		q := float64(req.Query)
		tbl.Cols[0] = relal.FloatsV([]float64{q, q})
		return resp, tbl
	}
	cut := func(q int) Request { return Request{Op: OpCut, Query: q} }
	opts := Options{MaxAttempts: 3, BackoffBase: time.Millisecond, ProbeEvery: -1}

	t.Run("wrong sequence", func(t *testing.T) {
		c := NewCoordinatorDB(db, []string{fakeShard(t, 1, func(req Request) (Response, *relal.Table) {
			resp, tbl := keyed(req)
			resp.Seq = req.Seq + 1
			return resp, tbl
		})}, opts)
		defer c.Close()
		parts, err := c.scatter(cut(6))
		if !errors.Is(err, ErrPartial) || parts != nil {
			t.Fatalf("got parts %v, err %v; want a partial error and no parts", parts != nil, err)
		}
		if got := c.Stats()[cRetries]; got != int64(opts.MaxAttempts-1) {
			t.Fatalf("%d retries, want %d", got, opts.MaxAttempts-1)
		}
	})

	t.Run("answers twice", func(t *testing.T) {
		addr := fakeShard(t, 2, keyed)
		c := NewCoordinatorDB(db, []string{addr}, opts)
		defer c.Close()
		for k, q := range []int{6, 19, 6} {
			parts, err := c.scatter(cut(q))
			if err != nil {
				t.Fatalf("Q%d: %v", q, err)
			}
			if got := parts[0].FloatCol("rev").Get(0); got != float64(q) {
				t.Fatalf("Q%d read the answer to Q%v", q, got)
			}
			// Every request after the first meets the spare copy first.
			if got := c.Stats()[cRetries]; got != int64(k) {
				t.Fatalf("after request %d: %d retries, want %d", k+1, got, k)
			}
		}

		// With no attempt to spare, the spare copy ends the call.
		one := NewCoordinatorDB(db, []string{addr}, Options{MaxAttempts: 1, ProbeEvery: -1})
		defer one.Close()
		if _, err := one.scatter(cut(6)); err != nil {
			t.Fatal(err)
		}
		parts, err := one.scatter(cut(19))
		if !errors.Is(err, ErrPartial) || parts != nil {
			t.Fatalf("got parts %v, err %v; want a partial error and no parts", parts != nil, err)
		}
	})
}
