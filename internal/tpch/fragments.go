// Distributed query fragments: the shard-local half of a query plus
// the coordinator-side merge that recombines per-shard partials into
// the exact single-process answer.
//
// A query qualifies for fragment execution only when both halves are
// provably exact under orderkey hash partitioning:
//
//   - every scan, filter, and join in the partial is colocated on
//     orderkey, so no shard ever needs another shard's rows, and
//   - the partial's aggregates merge by integer-valued sums, so
//     recombining per-shard results is independent of shard count and
//     accumulation order (no float rounding drift).
//
// Queries that fail either test (e.g. Q22's float revenue sums, whose
// grouped totals are order-sensitive) run through the coordinator's
// row-shipping path instead: shards return filtered base-table rows
// tagged with their global row position, the coordinator restores the
// original row order, and the unmodified single-process plan runs on
// the reassembled table. That path is exact for every query; fragments
// are the bandwidth optimisation for the plans that allow it.
package tpch

import "elephants/internal/relal"

// Fragment is one query's scatter/gather decomposition.
type Fragment struct {
	ID int
	// Partial runs the shard-local plan against a (partitioned) DB and
	// returns the per-shard grouped partial aggregate.
	Partial func(e *relal.Exec, db *DB) *relal.Table
	// Merge recombines the per-shard partials (one table per live
	// shard, in shard order) into the final answer, including the
	// query's output sort.
	Merge func(e *relal.Exec, parts []*relal.Table) *relal.Table
}

// Fragments registers the queries with a proven-exact scatter/gather
// decomposition, keyed by query number.
var Fragments = map[int]Fragment{
	4: {
		ID:      4,
		Partial: q4Partial,
		Merge: func(e *relal.Exec, parts []*relal.Table) *relal.Table {
			return e.Sort(mergeGroupedSums(parts, "o_orderpriority"),
				relal.OrderSpec{Col: "o_orderpriority"})
		},
	},
	12: {
		ID:      12,
		Partial: q12Partial,
		Merge: func(e *relal.Exec, parts []*relal.Table) *relal.Table {
			return e.Sort(mergeGroupedSums(parts, "l_shipmode"),
				relal.OrderSpec{Col: "l_shipmode"})
		},
	},
}

// mergeGroupedSums adds per-shard grouped partials cell-wise: rows are
// matched on the string group column key, and every other column is
// summed in its own type. Count columns stay Int (an Aggregate re-run
// would widen them to Float and change the printed schema); Float
// columns here only ever hold integer-valued partial sums, so float
// addition is exact and shard-order-independent. Group keys keep their
// first-seen order; the caller applies the query's output sort.
func mergeGroupedSums(parts []*relal.Table, key string) *relal.Table {
	var schema relal.Schema
	for _, p := range parts {
		if p != nil {
			schema = p.Schema
			break
		}
	}
	if schema == nil {
		panic("tpch: mergeGroupedSums with no parts")
	}
	ki := schema.Col(key)
	type acc struct {
		ints   []int64
		floats []float64
	}
	accs := make(map[string]*acc)
	var order []string
	for _, p := range parts {
		if p == nil || p.NumRows() == 0 {
			continue
		}
		kv := p.StrCol(key)
		ivs := make([]relal.IntVec, len(schema))
		fvs := make([]relal.FloatVec, len(schema))
		for ci, c := range schema {
			if ci == ki {
				continue
			}
			switch c.Type {
			case relal.Int:
				ivs[ci] = p.IntCol(c.Name)
			case relal.Float:
				fvs[ci] = p.FloatCol(c.Name)
			default:
				panic("tpch: non-numeric aggregate column " + c.Name)
			}
		}
		for i := 0; i < p.NumRows(); i++ {
			k := kv.Get(i)
			a := accs[k]
			if a == nil {
				a = &acc{ints: make([]int64, len(schema)), floats: make([]float64, len(schema))}
				accs[k] = a
				order = append(order, k)
			}
			for ci, c := range schema {
				if ci == ki {
					continue
				}
				if c.Type == relal.Int {
					a.ints[ci] += ivs[ci].Get(i)
				} else {
					a.floats[ci] += fvs[ci].Get(i)
				}
			}
		}
	}
	cols := make([]*relal.Vector, len(schema))
	for ci, c := range schema {
		switch {
		case ci == ki:
			keys := make([]string, len(order))
			copy(keys, order)
			cols[ci] = relal.StrsV(keys)
		case c.Type == relal.Int:
			xs := make([]int64, len(order))
			for ri, k := range order {
				xs[ri] = accs[k].ints[ci]
			}
			cols[ci] = relal.IntsV(xs)
		default:
			xs := make([]float64, len(order))
			for ri, k := range order {
				xs[ri] = accs[k].floats[ci]
			}
			cols[ci] = relal.FloatsV(xs)
		}
	}
	return relal.NewTable("merged", schema, cols...)
}
