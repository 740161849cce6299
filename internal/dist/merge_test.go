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

// TestDistScanMergeDifferential: at every shard count, a scan through
// the coordinator's scattered source returns exactly the cells the same
// scan of the in-memory table returns — all columns and a column subset
// unfiltered, and under a zone predicate exactly the rows that pass it, since the shards filter before they ship — and
// dictionary columns arrive still dictionary-encoded.
func TestDistScanMergeDifferential(t *testing.T) {
	e := &relal.Exec{Parallelism: 1}
	// Per table: a dictionary Str condition and an open Float bound to
	// push beside the key range.
	extra := map[string][]relal.ZoneCond{
		"lineitem": {relal.StrEq("l_shipinstruct", "DELIVER IN PERSON"), relal.FloatLess("l_quantity", 24)},
		"orders":   {relal.StrRange("o_orderdate", "1993-01-01", "1997-01-01"), relal.FloatGreater("o_totalprice", 50000)},
	}
	for _, n := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			db := tpch.Generate(goldenGen())
			c := NewCoordinatorDB(db, startLocalShards(t, n), Options{ProbeEvery: -1})
			defer c.Close()
			for _, name := range []string{"lineitem", "orders"} {
				mem := db.Table(name)
				dist := db.Src(name)
				key := PartitionedTables[name]
				subset := []string{mem.Schema[len(mem.Schema)-1].Name, key, mem.Schema[4].Name}
				// The in-memory source hands back every row and every
				// column; project to what was asked for.
				local := func(cols []string, pred relal.ZonePredicate) *relal.Table {
					tbl, _ := relal.NewTableSource(mem).ScanTable(cols, pred)
					if cols != nil {
						tbl = e.Project(tbl, cols...)
					}
					return tbl
				}

				for _, cols := range [][]string{nil, subset} {
					want := local(cols, nil)
					got, _ := dist.ScanTable(cols, nil)
					sameCells(t, got, want)
					for i, v := range want.Cols {
						if v.IsDict() && !(got.Cols[i].IsDict() && slices.Equal(got.Cols[i].DictVals, v.DictVals)) {
							t.Fatalf("%s.%s lost its dictionary in the merge", name, want.Schema[i].Name)
						}
					}
				}

				// The table is clustered by its key, so a key range prunes
				// groups on the shards; the shards then drop every row that
				// fails a condition, so the merged scan is exactly the
				// matching rows, in order.
				keys := mem.IntCol(key)
				lo, hi := keys.Get(mem.NumRows()/3), keys.Get(mem.NumRows()/2)
				pred := append(relal.ZonePredicate{relal.IntBetween(key, lo, hi)}, extra[name]...)
				cols := slices.Clone(subset)
				for _, c := range pred[1:] {
					cols = append(cols, c.Col)
				}
				scanned := local(cols, pred)
				want := e.Where(scanned, pred.On(scanned)...)
				got, stats := dist.ScanTable(cols, pred)
				if stats.GroupsSkipped == 0 {
					t.Fatalf("%s: predicate pruned nothing on the shards: %+v", name, stats)
				}
				if want.NumRows() == 0 || want.NumRows() == e.Where(scanned, pred[:1].On(scanned)...).NumRows() {
					t.Fatalf("%s: %d rows match; the extra conditions must keep some and drop some", name, want.NumRows())
				}
				sameCells(t, got, want)
			}
		})
	}
}

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
	cuts := map[string]tpch.Cut{"spine aggregate": {Prefix: spineAggPrefix, Ship: []string{"l_orderkey", "l_returnflag", "o_orderdate", "sum_qty"}}}
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
		want := e.Project(cut.Prefix(e, db), cut.Ship...)
		if name == "spine aggregate" && want.NumRows() == 0 {
			t.Fatalf("%s: no prefix rows to merge", name)
		}
		for n, dbs := range shards {
			t.Run(fmt.Sprintf("%s/shards=%d", name, n), func(t *testing.T) {
				parts := make([]*relal.Table, n)
				for i, sdb := range dbs {
					parts[i] = e.Project(cut.Prefix(e, sdb), append(slices.Clip(cut.Ship), tpch.PosCol)...).Compacted()
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

// shardScan sends one request straight to a shard over a session of its
// own and returns its decoded response.
func shardScan(t *testing.T, addr string, req Request) Response {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	s, err := dialSession(addr, deadline)
	if err != nil {
		t.Fatal(err)
	}
	defer s.conn.Close()
	resp, _, err := s.roundTrip(0, req, deadline, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("shard error: %s", resp.Err)
	}
	return resp
}

// TestDistShardScanFilter: a shard answers a scan with exactly the rows
// of its partition that pass every pushed condition it can test — Int,
// open Float and dictionary Str bounds, over a column subset or all
// columns. A condition on an unrequested column, or whose type is not
// its column's, is left to pruning without an error, and a predicate no
// row passes ships schema only.
func TestDistShardScanFilter(t *testing.T) {
	e := &relal.Exec{Parallelism: 1}
	gen := goldenGen()
	addrs := startLocalShards(t, 2)
	quantity := relal.FloatLess("l_quantity", 24)
	instruct := relal.StrEq("l_shipinstruct", "DELIVER IN PERSON")
	year := relal.StrRange("l_shipdate", "1994-01-01", "1995-01-01")
	mistyped := relal.ZoneCond{Col: "l_quantity", Kind: relal.Int, HasHi: true, IntHi: 10}
	for i, addr := range addrs {
		part := BuildShardDB(ShardConfig{Shards: 2, Index: i, SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64}).Lineitem
		keys := part.IntCol("l_orderkey")
		keyRange := relal.IntBetween("l_orderkey", keys.Get(part.NumRows()/3), keys.Get(part.NumRows()/2))
		// Quantities are whole numbers, so no row group can rule this out
		// and no row passes it.
		nothing := relal.FloatBetween("l_quantity", 24.25, 24.75)
		cases := []struct {
			name string
			cols []string
			// pred is sent; applied is the part of it the shard can test.
			pred, applied relal.ZonePredicate
		}{
			{"int range", []string{"l_orderkey", "l_quantity", tpch.PosCol}, relal.ZonePredicate{keyRange}, relal.ZonePredicate{keyRange}},
			{"open float bound", []string{"l_quantity", "l_extendedprice", tpch.PosCol}, relal.ZonePredicate{quantity}, relal.ZonePredicate{quantity}},
			{"dict str", []string{"l_shipinstruct", "l_shipdate", tpch.PosCol}, relal.ZonePredicate{instruct, year}, relal.ZonePredicate{instruct, year}},
			{"all columns", nil, relal.ZonePredicate{year, quantity}, relal.ZonePredicate{year, quantity}},
			{"unrequested column", []string{"l_orderkey", tpch.PosCol}, relal.ZonePredicate{quantity, keyRange}, relal.ZonePredicate{keyRange}},
			{"mistyped", []string{"l_quantity", tpch.PosCol}, relal.ZonePredicate{mistyped}, nil},
			{"matches nothing", []string{"l_quantity", tpch.PosCol}, relal.ZonePredicate{nothing}, relal.ZonePredicate{nothing}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("shard=%d/%s", i, tc.name), func(t *testing.T) {
				want := e.Where(part, tc.applied.On(part)...)
				if tc.cols != nil {
					want = e.Project(want, tc.cols...)
				}
				resp := shardScan(t, addr, Request{Op: OpScan, Table: "lineitem", Cols: tc.cols, Pred: tc.pred})
				if want.NumRows() == 0 {
					if resp.Rows != 0 || resp.Data != nil {
						t.Fatalf("nothing matches, yet the shard shipped %d rows, %d bytes", resp.Rows, len(resp.Data))
					}
					return
				}
				got, err := decodeTable(resp, "lineitem")
				if err != nil {
					t.Fatal(err)
				}
				if n := e.Where(got, tc.applied.On(got)...).NumRows(); n != got.NumRows() {
					t.Fatalf("%d of %d shipped rows fail the predicate", got.NumRows()-n, got.NumRows())
				}
				sameCells(t, got, want)
			})
		}
	}
}

// scanParts builds per-shard scan answers over (k Int, s Str, _pos):
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

// scanAnswer answers a scan request the way a shard could: two rows of
// the requested schema, at the given positions.
func scanAnswer(db *tpch.DB, req Request, pos ...int64) (Response, *relal.Table) {
	schema, err := scanSchema(db.Table(req.Table).Schema, req.Cols)
	if err != nil {
		return Response{Err: err.Error()}, nil
	}
	cols := make([]*relal.Vector, len(schema))
	for i, c := range schema {
		switch {
		case c.Name == tpch.PosCol:
			cols[i] = relal.IntsV(pos)
		case c.Type == relal.Int:
			cols[i] = relal.IntsV([]int64{1, 2})
		case c.Type == relal.Float:
			cols[i] = relal.FloatsV([]float64{1, 2})
		default:
			cols[i] = relal.DictV([]uint32{0, 1}, []string{"1994-01-01", "1994-06-01"})
		}
	}
	return Response{Schema: schema, Rows: 2}, relal.NewTable(req.Table, schema, cols...)
}

// cutAnswer answers Q4's cut the way a shard could: the given columns
// (o_orderpriority, all "1-URGENT", unless the test names others) over
// rows at the given positions, which a column named tpch.PosCol holds.
func cutAnswer(cols []string, pos ...int64) (Response, *relal.Table) {
	schema := make(relal.Schema, len(cols))
	vecs := make([]*relal.Vector, len(cols))
	for i, name := range cols {
		if name == tpch.PosCol {
			schema[i], vecs[i] = relal.Column{Name: name, Type: relal.Int}, relal.IntsV(pos)
		} else {
			schema[i], vecs[i] = relal.Column{Name: name, Type: relal.Str}, relal.DictV(make([]uint32, len(pos)), []string{"1-URGENT"})
		}
	}
	return Response{Schema: schema, Rows: len(pos)}, relal.NewTable("prefix", schema, vecs...)
}

// TestDistMalformedAnswers: a shard that answers a scan or a cut with
// bytes that pass the frame checksum but break the table's invariants
// gets the retry loop and then a typed partial error — never a panic,
// never rows.
func TestDistMalformedAnswers(t *testing.T) {
	db := tpch.Generate(goldenGen())
	wellFormed := func(req Request, pos ...int64) (Response, *relal.Table) { return scanAnswer(db, req, pos...) }
	firstStr := func(tbl *relal.Table) int {
		return slices.IndexFunc(tbl.Schema, func(c relal.Column) bool { return c.Type == relal.Str })
	}
	ship := []string{"o_orderpriority", tpch.PosCol}
	cut := func(cols []string, pos ...int64) func(Request) (Response, *relal.Table) {
		return func(Request) (Response, *relal.Table) { return cutAnswer(cols, pos...) }
	}
	// Q6 scatters a lineitem scan; Q4 is a cut.
	cases := map[string][]func(Request) (Response, *relal.Table){
		"positions out of order": {func(req Request) (Response, *relal.Table) { return wellFormed(req, 9, 4) }},
		"positions repeat":       {func(req Request) (Response, *relal.Table) { return wellFormed(req, 4, 4) }},
		"code out of range": {func(req Request) (Response, *relal.Table) {
			resp, tbl := wellFormed(req, 4, 9)
			tbl.Cols[firstStr(tbl)].Dict[1] = 2
			return resp, tbl
		}},
		"fewer rows than claimed": {func(req Request) (Response, *relal.Table) {
			resp, tbl := wellFormed(req, 4, 9)
			resp.Rows = 3
			return resp, tbl
		}},
		"a column short": {func(req Request) (Response, *relal.Table) {
			resp, tbl := wellFormed(req, 4, 9)
			resp.Schema = resp.Schema[1:]
			return resp, relal.NewTable(tbl.Name, resp.Schema, tbl.Cols[1:]...)
		}},
		"two shards, one position": {
			func(req Request) (Response, *relal.Table) { return wellFormed(req, 4, 9) },
			func(req Request) (Response, *relal.Table) { return wellFormed(req, 5, 9) },
		},
		"cut positions descending":      {cut(ship, 4, 9, 7)},
		"cut without positions":         {cut(ship[:1], 4, 9)},
		"cut with an extra column":      {cut([]string{"o_orderpriority", "o_orderdate", tpch.PosCol}, 4, 9)},
		"cut, two shards, one position": {cut(ship, 4, 9), cut(ship, 5, 9)},
		"cut, two shards, two column types": {cut(ship, 4, 9), func(Request) (Response, *relal.Table) {
			resp, tbl := cutAnswer(ship, 5, 8)
			resp.Schema = slices.Clone(resp.Schema)
			resp.Schema[0].Type, tbl.Schema, tbl.Cols[0] = relal.Int, resp.Schema, relal.IntsV([]int64{1, 2})
			return resp, tbl
		}},
	}
	for name, answers := range cases {
		t.Run(name, func(t *testing.T) {
			addrs := make([]string, len(answers))
			for i, answer := range answers {
				addrs[i] = fakeShard(t, 1, answer)
			}
			c := NewCoordinatorDB(db, addrs, Options{MaxAttempts: 3, BackoffBase: time.Millisecond, ProbeEvery: -1})
			defer c.Close()
			q := 6
			if strings.HasPrefix(name, "cut") {
				q = 4
			}
			out, err := c.RunQuery(q)
			if !errors.Is(err, ErrPartial) || out != nil {
				t.Fatalf("got table %v, err %v; want a partial error and no table", out != nil, err)
			}
			if len(answers) == 1 && c.Stats()[cRetries] == 0 {
				t.Fatalf("the malformed answer was not retried: %v", c.Stats())
			}
		})
	}

	// The same fakes, answering within the rules, are believed: the
	// cases above fail for the reason they name. A cut may repeat a
	// position within one answer.
	c := NewCoordinatorDB(db, []string{fakeShard(t, 1, func(req Request) (Response, *relal.Table) { return wellFormed(req, 4, 9) })},
		Options{MaxAttempts: 1, ProbeEvery: -1})
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
// session for the next request: two scans of the same columns pass
// every check but this one. The fake names each request in its answer
// (the order keys are the pushed lower bound), so an answer read for
// the wrong request would show.
func TestDistSequenceEcho(t *testing.T) {
	db := tpch.Generate(goldenGen())
	keyed := func(req Request) (Response, *relal.Table) {
		resp, tbl := scanAnswer(db, req, 4, 9)
		k := req.Pred[0].IntLo
		tbl.Cols[0] = relal.IntsV([]int64{k, k})
		return resp, tbl
	}
	scan := func(k int64) Request {
		return Request{Op: OpScan, Table: "lineitem", Cols: []string{"l_orderkey", tpch.PosCol},
			Pred: relal.ZonePredicate{relal.IntBetween("l_orderkey", k, k)}}
	}
	opts := Options{MaxAttempts: 3, BackoffBase: time.Millisecond, ProbeEvery: -1}

	t.Run("wrong sequence", func(t *testing.T) {
		c := NewCoordinatorDB(db, []string{fakeShard(t, 1, func(req Request) (Response, *relal.Table) {
			resp, tbl := keyed(req)
			resp.Seq = req.Seq + 1
			return resp, tbl
		})}, opts)
		defer c.Close()
		parts, _, err := c.scatter(scan(1))
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
		for k := int64(1); k <= 3; k++ {
			parts, _, err := c.scatter(scan(k))
			if err != nil {
				t.Fatalf("scan %d: %v", k, err)
			}
			if got := parts[0].IntCol("l_orderkey").Get(0); got != k {
				t.Fatalf("scan %d read the answer to scan %d", k, got)
			}
			// Every scan after the first meets the spare copy first.
			if got := c.Stats()[cRetries]; got != k-1 {
				t.Fatalf("after scan %d: %d retries, want %d", k, got, k-1)
			}
		}

		// With no attempt to spare, the spare copy ends the call.
		one := NewCoordinatorDB(db, []string{addr}, Options{MaxAttempts: 1, ProbeEvery: -1})
		defer one.Close()
		if _, _, err := one.scatter(scan(1)); err != nil {
			t.Fatal(err)
		}
		parts, _, err := one.scatter(scan(2))
		if !errors.Is(err, ErrPartial) || parts != nil {
			t.Fatalf("got parts %v, err %v; want a partial error and no parts", parts != nil, err)
		}
	})
}
