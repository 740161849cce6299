package dist

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// TestDistScanMergeDifferential: at every shard count, a scan through
// the coordinator's scattered source returns exactly the cells the same
// scan of the in-memory table returns — all columns, a column subset,
// and under a zone predicate that prunes row groups on both sides — and
// dictionary columns arrive still dictionary-encoded.
func TestDistScanMergeDifferential(t *testing.T) {
	e := &relal.Exec{Parallelism: 1}
	for _, n := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := NewCoordinator(goldenGen(), startLocalShards(t, n), Options{ProbeEvery: -1})
			defer c.Close()
			for _, name := range []string{"lineitem", "orders"} {
				mem := c.DB().Table(name)
				dist := c.DB().Src(name)
				key := PartitionedTables[name]
				subset := []string{mem.Schema[len(mem.Schema)-1].Name, key, mem.Schema[4].Name}
				// The in-memory source prunes row groups but hands back every
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
				// groups everywhere. Which rows survive pruning depends on
				// where each side's group boundaries fall; the rows that
				// satisfy the predicate survive on both, in order.
				keys := mem.IntCol(key)
				lo, hi := keys.Get(mem.NumRows()/3), keys.Get(mem.NumRows()/2)
				pred := relal.ZonePredicate{relal.IntBetween(key, lo, hi)}
				exact := func(tbl *relal.Table) *relal.Table {
					k := tbl.IntCol(key)
					return e.Filter(tbl, func(i int) bool { return k.Get(i) >= lo && k.Get(i) <= hi })
				}
				want := local(subset, pred)
				got, stats := dist.ScanTable(subset, pred)
				if stats.GroupsSkipped == 0 {
					t.Fatalf("%s: predicate pruned nothing on the shards: %+v", name, stats)
				}
				if exact(want).NumRows() == 0 {
					t.Fatalf("%s: predicate matches nothing", name)
				}
				sameCells(t, exact(got), exact(want))
			}
		})
	}
}

// scanParts builds per-shard scan answers over (k Int, s Str, _pos):
// part i holds the given positions, k = 10×position, and s drawn from
// dicts[i] (nil = raw strings) by position.
func scanParts(dicts [][]string, positions ...[]int64) []*relal.Table {
	schema := relal.Schema{{Name: "k", Type: relal.Int}, {Name: "s", Type: relal.Str}, {Name: PosCol, Type: relal.Int}}
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
// bad disk, the coordinator has to survive.
func fakeShard(t *testing.T, answer func(Request) (Response, *relal.Table)) string {
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
				payload, err := ReadFrame(conn)
				if err != nil {
					return
				}
				req, err := DecodeRequest(payload)
				if err != nil {
					return
				}
				resp, tbl := answer(req)
				writeResponse(conn, resp, tbl)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestDistMalformedAnswers: a shard that answers a scan with bytes that
// pass the frame checksum but break the table's invariants gets the
// retry loop and then a typed partial error — never a panic, never
// rows.
func TestDistMalformedAnswers(t *testing.T) {
	db := tpch.Generate(goldenGen())
	// wellFormed answers any scan with two rows of the requested schema,
	// at the given positions.
	wellFormed := func(req Request, pos ...int64) (Response, *relal.Table) {
		schema, err := scanSchema(db.Table(req.Table).Schema, req.Cols)
		if err != nil {
			return Response{Err: err.Error()}, nil
		}
		cols := make([]*relal.Vector, len(schema))
		for i, c := range schema {
			switch {
			case c.Name == PosCol:
				cols[i] = relal.IntsV(pos)
			case c.Type == relal.Int:
				cols[i] = relal.IntsV([]int64{1, 2})
			case c.Type == relal.Float:
				cols[i] = relal.FloatsV([]float64{1, 2})
			default:
				cols[i] = relal.DictV([]uint32{0, 1}, []string{"1994-01-01", "1994-06-01"})
			}
		}
		tbl := relal.NewTable(req.Table, schema, cols...)
		return Response{Schema: schema, Rows: 2}, tbl
	}
	firstStr := func(tbl *relal.Table) int {
		return slices.IndexFunc(tbl.Schema, func(c relal.Column) bool { return c.Type == relal.Str })
	}
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
	}
	for name, answers := range cases {
		t.Run(name, func(t *testing.T) {
			addrs := make([]string, len(answers))
			for i, answer := range answers {
				addrs[i] = fakeShard(t, answer)
			}
			c := NewCoordinatorDB(db, addrs, Options{MaxAttempts: 3, BackoffBase: time.Millisecond, ProbeEvery: -1, NoFragments: true})
			defer c.Close()
			out, err := c.RunQuery(6)
			if !errors.Is(err, ErrPartial) || out != nil {
				t.Fatalf("got table %v, err %v; want a partial error and no table", out != nil, err)
			}
			if len(answers) == 1 && c.Stats()[cRetries] == 0 {
				t.Fatalf("the malformed answer was not retried: %v", c.Stats())
			}
		})
	}

	// The same fake, answering within the rules, is believed: the cases
	// above fail for the reason they name.
	c := NewCoordinatorDB(db, []string{fakeShard(t, func(req Request) (Response, *relal.Table) { return wellFormed(req, 4, 9) })},
		Options{MaxAttempts: 1, ProbeEvery: -1, NoFragments: true})
	defer c.Close()
	if _, err := c.RunQuery(6); err != nil {
		t.Fatalf("well-formed answer rejected: %v", err)
	}
}
