package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"elephants/internal/fault"
	"elephants/internal/htap"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// goldenFile is the repository's pinned answers for SF 0.005, seed 1,
// relative to the root of the checkout.
const (
	goldenFile = "internal/tpch/testdata/tpch_golden.txt"
	goldenSF   = 0.005
	goldenSeed = 1
)

// reference holds the expected text of each query's answer, computed by
// the serial executor over in-memory tables: the plainest path through
// the engine, which every workload's answers must equal byte for byte.
type reference [numQueries + 1]string

func referenceOf(db *tpch.DB) *reference {
	var r reference
	for id := 1; id <= numQueries; id++ {
		out, _ := tpch.RunQueryWorkers(id, db, 1)
		r[id] = tpch.FormatAnswer(id, out)
	}
	return &r
}

// newReference computes the reference answers on a database whose
// sources are still the in-memory tables. At the scale factor and seed
// of the repository's golden file the reference itself must equal that
// file, which ties the benchmark's notion of correct to the test
// suite's.
func newReference(cfg config, db *tpch.DB) (*reference, error) {
	r := referenceOf(db)
	if cfg.check && cfg.sf == goldenSF && cfg.seed == goldenSeed {
		path := filepath.Join(cfg.root, goldenFile)
		golden, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("golden answers: %w", err)
		}
		if strings.Join(r[1:], "") != string(golden) {
			return nil, fmt.Errorf("reference answers differ from %s", path)
		}
	}
	return r, nil
}

// baseReference is the reference for the dataset without the last
// hold[table] rows of each held table: what an HTAP store serves before
// the first write.
func baseReference(db *tpch.DB, hold map[string]int) *reference {
	base := tablesOf(db)
	base.Orders = relal.Head(db.Orders, db.Orders.NumRows()-hold["orders"])
	base.Lineitem = relal.Head(db.Lineitem, db.Lineitem.NumRows()-hold["lineitem"])
	return referenceOf(base)
}

// check compares one answer with the reference and counts a mismatch as
// a failed operation.
func (r *reference) check(o *outcome, when string, id int, out *relal.Table) {
	if got := tpch.FormatAnswer(id, out); got != r[id] {
		o.fail("%s: Q%d answer differs from the reference (%d bytes against %d)", when, id, len(got), len(r[id]))
	}
}

// checkDurability repeats the start of htap-mixed's write phase on an
// in-memory file system, crashes it instead of closing it, and checks
// what recovery brings back. Killing a process would leave the operating
// system's cache intact, so the crash itself discards the bytes that
// were never flushed. Every acknowledged write must be below the
// recovered NextPos, and once the missing rows are appended again all
// answers must equal the reference.
func checkDurability(cfg config, ref *reference, o *outcome) error {
	db := tpch.Generate(cfg.gen())
	mem := fault.NewMemFS()
	hold := heldRows(cfg, db)
	storeCfg := htap.Config{RCFile: true, GroupRows: groupRows, ConvertRows: convertRows, FS: mem}
	store, err := htap.New(db, hold, storeCfg)
	if err != nil {
		return err
	}
	store.StartConverter()
	held := store.HeldRecords()
	acked := make(map[string]int64) // table → highest acknowledged position + 1
	for _, r := range held[:len(held)/2] {
		o.attempted++
		if _, err := store.AppendRecord(r); err != nil {
			o.fail("durability write %s@%d: %v", r.Table, r.Pos, err)
			continue
		}
		acked[r.Table] = max(acked[r.Table], r.Pos+1)
	}
	// The machine dies here: no quiesce, no final fsync, no close. The
	// converter is stopped only so that it cannot write into the file
	// system that the recovered store now owns.
	store.StopConverter()
	mem.Crash(cfg.seed)

	store, err = htap.Open(db, hold, storeCfg)
	if err != nil {
		return fmt.Errorf("recover after crash: %w", err)
	}
	for _, table := range sortedKeys(hold) {
		if next := store.NextPos(table); next < acked[table] {
			o.fail("crash lost acknowledged writes: %s recovered to %d, %d were acknowledged", table, next, acked[table])
		}
	}
	for _, r := range held {
		if r.Pos < store.NextPos(r.Table) {
			continue
		}
		o.attempted++
		if _, err := store.AppendRecord(r); err != nil {
			o.fail("durability re-append %s@%d: %v", r.Table, r.Pos, err)
		}
	}
	if err := store.Quiesce(); err != nil {
		return err
	}
	if err := store.ConvertAll(); err != nil {
		return err
	}
	for id := 1; id <= numQueries; id++ {
		o.attempted++
		out, _ := tpch.RunQueryWorkers(id, db, 0)
		ref.check(o, "after crash recovery", id, out)
	}
	return store.Close()
}
