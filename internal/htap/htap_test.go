package htap

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elephants/internal/delta"
	"elephants/internal/docstore"
	"elephants/internal/fault"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// The golden DB parameters must match internal/tpch's golden tests so
// quiesced HTAP answers can pin to the same snapshot.
const goldenSF = 0.005

func goldenDB() *tpch.DB {
	return tpch.Generate(tpch.GenConfig{SF: goldenSF, Seed: 1, Random64: true})
}

func readGolden(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile("../tpch/testdata/tpch_golden.txt")
	if err != nil {
		t.Skipf("golden file missing: %v", err)
	}
	return string(want)
}

func snapshotAnswers(db *tpch.DB) string {
	var b strings.Builder
	for _, q := range tpch.Queries {
		out, _ := tpch.RunQuery(q.ID, db)
		b.WriteString(tpch.FormatAnswer(q.ID, out))
	}
	return b.String()
}

func diffSnapshot(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("answer drift at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("answer drift: got %d lines, want %d", len(gl), len(wl))
}

func testHold() map[string]int {
	return map[string]int{"orders": 150, "lineitem": 300}
}

// TestHtapGoldenQuiesced is the pipeline's answer-preservation proof:
// hold back the tail of orders and lineitem, replay every held row
// through the delta write path, quiesce, and require all 22 query
// answers byte-identical to the committed golden snapshot — with the
// replayed rows served from the unconverted delta tail and again after
// conversion into column-group parts, over both storage modes.
func TestHtapGoldenQuiesced(t *testing.T) {
	want := readGolden(t)
	for _, rcf := range []bool{false, true} {
		for _, convert := range []bool{false, true} {
			name := fmt.Sprintf("rcfile=%v/converted=%v", rcf, convert)
			t.Run(name, func(t *testing.T) {
				db := goldenDB()
				store, err := New(db, testHold(), Config{Window: -1, RCFile: rcf})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range store.HeldRecords() {
					if _, err := store.AppendRecord(r); err != nil {
						t.Fatal(err)
					}
				}
				if err := store.Quiesce(); err != nil {
					t.Fatal(err)
				}
				if convert {
					if err := store.ConvertAll(); err != nil {
						t.Fatal(err)
					}
					st := store.StatsNow()
					if st.LagRecords != 0 {
						t.Errorf("lag = %d records after ConvertAll, want 0", st.LagRecords)
					}
					if st.ConvertedRecords != int64(len(store.HeldRecords())) {
						t.Errorf("converted %d records, want %d", st.ConvertedRecords, len(store.HeldRecords()))
					}
				}
				diffSnapshot(t, snapshotAnswers(db), want)
			})
		}
	}
}

// writeHeld replays every held record through the BSON wire path —
// record → doc → BSON bytes → unmarshal → append — from writers
// goroutines that claim records off an atomic cursor, beside
// tpch.RunStreams over the same DB, while one goroutine polls StatsNow
// so -race sees stats sampling against writes, converter and scans. It
// returns how many writes were issued and how many failed.
func writeHeld(store *Store, db *tpch.DB, writers int, streams tpch.StreamConfig) (ops, errs int64) {
	held := store.HeldRecords()
	var cursor, nops, nerrs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := cursor.Add(1) - 1; i < int64(len(held)); i = cursor.Add(1) - 1 {
				r := held[i]
				doc, err := store.DocOf(r)
				if err == nil {
					_, err = store.AppendBSON(r.Table, r.Pos, docstore.Marshal(doc))
				}
				if err != nil {
					nerrs.Add(1)
				}
				nops.Add(1)
			}
		}()
	}
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				store.StatsNow()
			}
		}
	}()
	tpch.RunStreams(db, streams)
	wg.Wait()
	close(stop)
	<-polled
	return nops.Load(), nerrs.Load()
}

// TestHtapGoldenBSONPath replays the held rows through the full wire
// path beside two query streams and pins the same snapshot, so the
// docstore mapping is also answer-preserving.
func TestHtapGoldenBSONPath(t *testing.T) {
	want := readGolden(t)
	db := goldenDB()
	store, err := New(db, testHold(), Config{Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	ops, errs := writeHeld(store, db, 4, tpch.StreamConfig{Streams: 2, Rounds: 1, Queries: []int{1, 6}})
	if err := store.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if ops != int64(len(store.HeldRecords())) {
		t.Errorf("write ops = %d, want %d", ops, len(store.HeldRecords()))
	}
	if errs != 0 {
		t.Errorf("write errors = %d", errs)
	}
	diffSnapshot(t, snapshotAnswers(db), want)
}

// TestHtapHarnessCombined is the capstone: concurrent write clients
// feed the delta log (group-commit windows live) while analytical
// streams run and the background converter drains tails — then the
// store quiesces, converts, and the answers still pin the golden
// snapshot. Run under -race this exercises every cross-goroutine edge:
// commit applies vs scans, converter vs scans, stats sampling vs all.
func TestHtapHarnessCombined(t *testing.T) {
	want := readGolden(t)
	db := goldenDB()
	store, err := New(db, testHold(), Config{
		Window:       100 * time.Microsecond,
		ConvertRows:  64,
		ConvertEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	store.StartConverter()
	ops, errs := writeHeld(store, db, 8, tpch.StreamConfig{Streams: 2, Rounds: 2})
	store.StopConverter()
	if err := store.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := store.ConvertAll(); err != nil {
		t.Fatal(err)
	}
	diffSnapshot(t, snapshotAnswers(db), want)

	if ops != int64(len(store.HeldRecords())) {
		t.Errorf("write ops = %d, want %d", ops, len(store.HeldRecords()))
	}
	if errs != 0 {
		t.Errorf("write errors = %d", errs)
	}
	final := store.StatsNow()
	if final.LagRecords != 0 {
		t.Errorf("lag = %d after quiesce+convert, want 0", final.LagRecords)
	}
	if final.ConvertedRecords != int64(len(store.HeldRecords())) {
		t.Errorf("converted %d, want %d", final.ConvertedRecords, len(store.HeldRecords()))
	}
	// Group commit must have shared flushes across the 8 writers.
	if final.Flushes >= final.CommittedRecords {
		t.Errorf("flushes = %d for %d records: group commit never shared", final.Flushes, final.CommittedRecords)
	}
}

// TestHtapReorderBuffer pins the out-of-order publication rule: records
// committed ahead of their position park in the reorder buffer and scans
// only ever see the contiguous prefix, in position order.
func TestHtapReorderBuffer(t *testing.T) {
	db := goldenDB()
	store, err := New(db, map[string]int{"orders": 10}, Config{Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	held := store.HeldRecords()
	scanRows := func() int {
		out, _ := db.Src("orders").ScanTable(nil, nil)
		return out.NumRows()
	}
	baseRows := scanRows()

	// Commit positions 2, then 0, then 1.
	if _, err := store.AppendRecord(held[2]); err != nil {
		t.Fatal(err)
	}
	if got := scanRows(); got != baseRows {
		t.Errorf("rows = %d after out-of-order commit, want %d (parked)", got, baseRows)
	}
	if st := store.StatsNow(); st.AppliedRecords != 0 || st.CommittedRecords != 1 {
		t.Errorf("applied=%d committed=%d, want 0/1", st.AppliedRecords, st.CommittedRecords)
	}
	if _, err := store.AppendRecord(held[0]); err != nil {
		t.Fatal(err)
	}
	if got := scanRows(); got != baseRows+1 {
		t.Errorf("rows = %d, want %d (prefix of 1 published)", got, baseRows+1)
	}
	if _, err := store.AppendRecord(held[1]); err != nil {
		t.Fatal(err)
	}
	if got := scanRows(); got != baseRows+3 {
		t.Errorf("rows = %d, want %d (gap filled, prefix of 3)", got, baseRows+3)
	}

	// The published tail is in position order, matching the original.
	out, _ := db.Src("orders").ScanTable(nil, nil)
	orig := db.Table("orders")
	keys := out.IntCol(orig.Schema[0].Name)
	origKeys := orig.IntCol(orig.Schema[0].Name)
	for i := 0; i < 3; i++ {
		if got, want := keys.Get(baseRows+i), origKeys.Get(baseRows+i); got != want {
			t.Errorf("row %d key = %d, want %d", baseRows+i, got, want)
		}
	}
	// Quiesce must refuse while a gap remains.
	if _, err := store.AppendRecord(held[4]); err != nil {
		t.Fatal(err)
	}
	if err := store.Quiesce(); err == nil {
		t.Errorf("Quiesce accepted a reorder-buffer gap")
	}
}

// TestHtapRejectsBadWrites pins write-path validation.
func TestHtapRejectsBadWrites(t *testing.T) {
	db := goldenDB()
	store, err := New(db, map[string]int{"orders": 10}, Config{Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.AppendRecord(delta.Record{Table: "nation", Pos: 0}); err == nil {
		t.Errorf("accepted a write to a non-held table")
	}
	if _, err := store.AppendRecord(delta.Record{Table: "orders", Pos: 0, Cells: []delta.Value{delta.IntVal(1)}}); err == nil {
		t.Errorf("accepted a row with too few cells")
	}
	r := store.HeldRecords()[0]
	bad := delta.Record{Table: r.Table, Pos: r.Pos, Cells: append([]delta.Value(nil), r.Cells...)}
	bad.Cells[0] = delta.StrVal("not-an-int")
	if _, err := store.AppendRecord(bad); err == nil {
		t.Errorf("accepted a kind-mismatched cell")
	}
	if _, err := New(db, map[string]int{"orders": 1 << 30}, Config{}); err == nil {
		t.Errorf("accepted holding back more rows than the table has")
	}
}

// TestHtapScanSubsetColumns pins the projection contract for every view
// shape, in both storage modes: base only (before any held row is
// appended), base + tail, and base + converted part. Each scan returns
// exactly the requested columns with the parts' rows in order, and a
// base-only full scan hands back the DB table's own column arrays — the
// base part is the in-memory prefix, not a decoded copy of it.
func TestHtapScanSubsetColumns(t *testing.T) {
	const hold = 20
	for _, rcf := range []bool{false, true} {
		t.Run(fmt.Sprintf("rcfile=%v", rcf), func(t *testing.T) {
			db := goldenDB()
			orig := db.Table("lineitem")
			want := relal.RowsOf(orig)
			store, err := New(db, map[string]int{"lineitem": hold}, Config{Window: -1, RCFile: rcf})
			if err != nil {
				t.Fatal(err)
			}
			cols := []string{orig.Schema[4].Name, orig.Schema[0].Name, "l_returnflag"}
			check := func(stage string, rows int) {
				t.Helper()
				for _, c := range [][]string{cols, nil} {
					out, _ := db.Src("lineitem").ScanTable(c, nil)
					names := c
					if c == nil {
						names = orig.Schema.Names()
					}
					if !reflect.DeepEqual(out.Schema.Names(), names) {
						t.Fatalf("%s: schema = %v, want %v", stage, out.Schema.Names(), names)
					}
					if out.NumRows() != rows {
						t.Fatalf("%s: rows = %d, want %d", stage, out.NumRows(), rows)
					}
					for i, r := range relal.RowsOf(out) {
						for k, name := range names {
							if w := want[i][orig.Schema.Col(name)]; r[k] != w {
								t.Fatalf("%s: row %d %s = %v, want %v", stage, i, name, r[k], w)
							}
						}
					}
				}
			}
			check("base", orig.NumRows()-hold)
			full, _ := db.Src("lineitem").ScanTable(nil, nil)
			for c, v := range orig.Cols {
				if !sameBacking(full.Cols[c], v) {
					t.Errorf("base scan column %s is a copy, want the DB table's own array", orig.Schema[c].Name)
				}
			}

			for _, r := range store.HeldRecords() {
				if _, err := store.AppendRecord(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := store.Quiesce(); err != nil {
				t.Fatal(err)
			}
			check("tail", orig.NumRows())
			if err := store.ConvertAll(); err != nil {
				t.Fatal(err)
			}
			check("converted", orig.NumRows())
		})
	}
}

// TestHtapReplicaViews pins the replica's view contract in both
// storage modes. Over a view with a base prefix, a converted part and a
// tail, two scans share every column's backing array (a scan copies no
// cell), their stats are the sum of the segments' in-memory scan model,
// and a scanned table keeps every cell after more appends and a
// conversion. A Str cell outside the base dictionary turns only its own
// column into raw strings, and every answer matches a reference DB
// holding the same cell.
func TestHtapReplicaViews(t *testing.T) {
	const hold, converted, tail = 40, 20, 10
	for _, rcf := range []bool{false, true} {
		t.Run(fmt.Sprintf("rcfile=%v", rcf), func(t *testing.T) {
			db := goldenDB()
			orig := db.Table("lineitem")
			want := relal.RowsOf(orig)
			n := orig.NumRows()
			cfg := Config{Window: -1, RCFile: rcf}
			if rcf {
				cfg.FS = fault.NewMemFS()
			}
			store, err := New(db, map[string]int{"lineitem": hold}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			appendAll := func(recs []delta.Record) {
				t.Helper()
				for _, r := range recs {
					if _, err := store.AppendRecord(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkRows := func(stage string, tbl *relal.Table, rows int) {
				t.Helper()
				got := relal.RowsOf(tbl)
				if len(got) != rows {
					t.Fatalf("%s: rows = %d, want %d", stage, len(got), rows)
				}
				for i, r := range got {
					if !reflect.DeepEqual(r, want[i]) {
						t.Fatalf("%s: row %d = %v, want %v", stage, i, r, want[i])
					}
				}
			}
			held := store.HeldRecords()
			appendAll(held[:converted])
			if err := store.ConvertAll(); err != nil {
				t.Fatal(err)
			}
			appendAll(held[converted : converted+tail])

			src := db.Src("lineitem")
			cols := []string{"l_orderkey", "l_shipdate", "l_quantity", "l_shipmode"}
			pred := relal.ZonePredicate{{Col: "l_shipdate", Kind: relal.Str, HasLo: true, StrLo: "1995-01-01"}}
			a, stats := src.ScanTable(cols, pred)
			b, _ := src.ScanTable(cols, pred)
			for c := range a.Cols {
				if !sameBacking(a.Cols[c], b.Cols[c]) {
					t.Errorf("two scans of one view copy column %s", cols[c])
				}
			}
			var sum relal.ScanStats
			for _, seg := range [][2]int{{0, n - hold}, {n - hold, n - hold + converted}, {n - hold + converted, n - hold + converted + tail}} {
				segT := relal.NewTable("lineitem", orig.Schema, window(orig.Cols, seg[0], seg[1])...)
				_, st := relal.NewTableSource(segT).ScanTable(cols, pred)
				sum.Add(st)
			}
			if stats != sum {
				t.Errorf("scan stats = %+v, want the segments' sum %+v", stats, sum)
			}
			rows := n - hold + converted + tail
			full, _ := src.ScanTable(nil, nil)
			checkRows("base+part+tail", full, rows)

			// The last held row's ship mode leaves the base dictionary.
			mode := orig.Schema.Col("l_shipmode")
			last := held[hold-1]
			odd := delta.Record{Table: last.Table, Pos: last.Pos, Cells: append([]delta.Value(nil), last.Cells...)}
			odd.Cells[mode] = delta.StrVal("ZEPPELIN")
			appendAll(held[converted+tail : hold-1])
			appendAll([]delta.Record{odd})
			if err := store.Quiesce(); err != nil {
				t.Fatal(err)
			}
			if err := store.ConvertAll(); err != nil {
				t.Fatal(err)
			}
			checkRows("earlier scan after appends", full, rows)
			after, _ := src.ScanTable(nil, nil)
			for c, v := range after.Cols {
				if wantDict := orig.Cols[c].IsDict() && c != mode; v.IsDict() != wantDict {
					t.Errorf("column %s dict = %v, want %v", orig.Schema[c].Name, v.IsDict(), wantDict)
				}
			}

			ref := goldenDB()
			refCols := slices.Clone(ref.Lineitem.Cols)
			strs := slices.Clone(refCols[mode].DecodeStrs())
			strs[n-1] = "ZEPPELIN"
			refCols[mode] = relal.StrsV(strs)
			ref.Lineitem = relal.NewTable("lineitem", orig.Schema, refCols...)
			diffSnapshot(t, snapshotAnswers(db), snapshotAnswers(ref))
		})
	}
}

// sameBacking reports whether a's cells start at b's first backing
// array element (b non-empty).
func sameBacking(a, b *relal.Vector) bool {
	switch {
	case b.Kind == relal.Int:
		return len(a.Ints) > 0 && &a.Ints[0] == &b.Ints[0]
	case b.Kind == relal.Float:
		return len(a.Floats) > 0 && &a.Floats[0] == &b.Floats[0]
	case b.IsDict():
		return len(a.Dict) > 0 && &a.Dict[0] == &b.Dict[0]
	}
	return len(a.Strs) > 0 && &a.Strs[0] == &b.Strs[0]
}
