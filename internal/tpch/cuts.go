// Colocated prefixes: where a query can be split so that each dist
// shard runs the first part of the plan over its own partition.
//
// A cut splits query N into Prefix and Suffix with qN = Suffix(Prefix(db)).
// The single-process plan is that composition, so its steps and their
// order are exactly the plan's. A dist shard runs Prefix over its hash
// partition of orders and lineitem (both on orderkey) and its full copy
// of every other table, and ships the Ship columns plus PosCol; the
// coordinator merges the shards' answers on PosCol and runs Suffix over
// the result.
//
// A prefix may be cut only when all three of these hold:
//
//  1. Its leftmost input is a scan of a partitioned table, and that scan
//     alone lists PosCol (through posCols, which adds it only where the
//     table carries the column, so the single-process scan is unchanged).
//  2. Every step on the left spine, from that scan to the prefix's
//     output, keeps its left input's row order (Where, Filter, Join,
//     SemiJoin/AntiJoin, Extend), or is an Aggregate whose group key
//     includes orderkey and that carries each group's first PosCol
//     (through posAggs, which adds it only where the input carries the
//     column).
//  3. Every other input is a replicated table, orders or lineitem joined
//     on orderkey, or an aggregate whose group key includes orderkey.
//
// By (3), whatever a spine row meets on the right lives on that row's
// shard, and each group of such an aggregate lives on one shard and is
// folded in the same row order as in the single-process plan, so even
// its float sums are bit-identical. By (1) and (2), each shard's output
// is then the global prefix output restricted to its own spine rows, in
// global order, each row tagged with its spine row's position, and
// merging on PosCol rebuilds the single-process prefix row for row.
// Positions within one answer are non-decreasing rather than ascending:
// a join may emit one spine row more than once (Q9's partsupp join does).
// A spine aggregate keeps this too (Q18's prefix starts with one): each
// group lives on one shard, and groups come out in first-seen order, so
// on each shard the groups' first positions ascend, and merging on them
// rebuilds the single-process group order.
package tpch

import (
	"slices"

	"elephants/internal/relal"
)

// PosCol is the hidden global-row-position column of a dist shard's
// partition of orders and lineitem: row i of the unpartitioned table
// keeps position i on whichever shard it hashes to.
const PosCol = "_pos"

// Cut is one query split at the end of its colocated prefix.
type Cut struct {
	// Prefix runs the plan up to the cut.
	Prefix func(e *relal.Exec, db *DB) *relal.Table
	// Ship names the columns of Prefix's output that Suffix reads.
	Ship []string
	// Suffix runs the rest of the plan over Prefix's output, or over
	// its Ship columns alone.
	Suffix func(e *relal.Exec, db *DB, t *relal.Table) *relal.Table
}

// Cuts registers the queries with a colocated prefix, by query number.
var Cuts = map[int]Cut{
	3:  {q3Prefix, []string{"l_orderkey", "o_orderdate", "o_shippriority", "revenue_item"}, q3Suffix},
	4:  {q4Prefix, []string{"o_orderpriority"}, q4Suffix},
	5:  {q5Prefix, []string{"n_name", "rev"}, q5Suffix},
	7:  {q7Prefix, []string{"supp_nation", "cust_nation", "l_year", "volume"}, q7Suffix},
	8:  {q8Prefix, []string{"o_year", "brazil_volume", "volume"}, q8Suffix},
	9:  {q9Prefix, []string{"n_name", "o_year", "amount"}, q9Suffix},
	10: {q10Prefix, []string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment", "rev"}, q10Suffix},
	12: {q12Prefix, []string{"l_shipmode", "high_line", "low_line"}, q12Suffix},
	13: {q13Prefix, []string{"o_custkey"}, q13Suffix},
	17: {q17Prefix, []string{"p_partkey", "l_partkey", "l_quantity", "l_extendedprice"}, q17Suffix},
	18: {q18Prefix, []string{"c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty"}, q18Suffix},
	19: {q19Prefix, []string{"rev"}, q19Suffix},
	21: {q21Prefix, []string{"s_name", "l_orderkey"}, q21Suffix},
}

// run is the single-process plan: the suffix over the whole prefix.
func (c Cut) run(e *relal.Exec, db *DB) *relal.Table {
	return c.Suffix(e, db, c.Prefix(e, db))
}

// hasPos reports whether s carries PosCol.
func hasPos(s relal.Schema) bool {
	return slices.ContainsFunc(s, func(c relal.Column) bool { return c.Name == PosCol })
}

// posCols returns the columns a cut's leftmost scan of table lists:
// cols, with PosCol last where the table carries it.
func posCols(db *DB, table string, cols ...string) []string {
	if hasPos(db.Table(table).Schema) {
		return append(cols, PosCol)
	}
	return cols
}

// posAggs returns the aggregates of a spine aggregate over t: aggs,
// with each group's first PosCol last where t carries the column.
func posAggs(t *relal.Table, aggs ...relal.AggSpec) []relal.AggSpec {
	if hasPos(t.Schema) {
		return append(aggs, relal.AggSpec{Fn: "first", Col: PosCol, As: PosCol})
	}
	return aggs
}
