// Colocated prefixes: where a query can be split so that each dist
// shard runs the first part of the plan over its own partition. Every
// query that reads orders or lineitem has one, so a dist coordinator
// runs each such query as a cut and scans neither table itself.
//
// A cut splits query N into Prefix and Suffix. Suffix takes its prefix
// as a thunk and calls it where the plan reads the prefix's rows: first
// thing in most plans, but after some steps on replicated tables in
// Q20's and Q22's, whose written order reads the partitioned table
// mid-plan. The single-process plan passes a thunk that runs Prefix at
// that point, so its steps and their order are exactly the plan's. A
// dist shard runs Prefix over its hash partition of orders and lineitem
// (both on orderkey) and its full copy of every other table, and ships
// the Ship columns plus PosCol; the coordinator merges the shards'
// answers on PosCol and runs Suffix with a thunk that returns the
// merged table.
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
// rebuilds the single-process group order. Everything that folds rows
// across orderkeys (Q1's, Q6's and Q14's totals, Q15's per-supplier
// sums) stays in the suffix, where it meets the rows in global order.
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
	// Ship is the schema of the columns of Prefix's output that Suffix
	// reads: a dist coordinator holds each shard's answer to it, names
	// and types.
	Ship relal.Schema
	// Suffix runs the rest of the plan. It calls prefix once, where the
	// plan reads the prefix's output; prefix returns that output, or its
	// Ship columns alone.
	Suffix func(e *relal.Exec, db *DB, prefix func() *relal.Table) *relal.Table
}

// Cuts registers the queries with a colocated prefix, by query number.
var Cuts = map[int]Cut{
	1: {q1Prefix, relal.Schema{
		strCol("l_returnflag"), strCol("l_linestatus"), floatCol("l_quantity"),
		floatCol("l_extendedprice"), floatCol("l_discount"), floatCol("l_tax")}, q1Suffix},
	3: {q3Prefix, relal.Schema{
		intCol("l_orderkey"), strCol("o_orderdate"),
		intCol("o_shippriority"), floatCol("revenue_item")}, q3Suffix},
	4: {q4Prefix, relal.Schema{strCol("o_orderpriority")}, q4Suffix},
	5: {q5Prefix, relal.Schema{strCol("n_name"), floatCol("rev")}, q5Suffix},
	6: {q6Prefix, relal.Schema{floatCol("rev")}, q6Suffix},
	7: {q7Prefix, relal.Schema{
		strCol("supp_nation"), strCol("cust_nation"),
		strCol("l_year"), floatCol("volume")}, q7Suffix},
	8: {q8Prefix, relal.Schema{strCol("o_year"), floatCol("brazil_volume"), floatCol("volume")}, q8Suffix},
	9: {q9Prefix, relal.Schema{strCol("n_name"), strCol("o_year"), floatCol("amount")}, q9Suffix},
	10: {q10Prefix, relal.Schema{
		intCol("c_custkey"), strCol("c_name"), floatCol("c_acctbal"), strCol("c_phone"),
		strCol("n_name"), strCol("c_address"), strCol("c_comment"), floatCol("rev")}, q10Suffix},
	12: {q12Prefix, relal.Schema{strCol("l_shipmode"), intCol("high_line"), intCol("low_line")}, q12Suffix},
	13: {q13Prefix, relal.Schema{intCol("o_custkey")}, q13Suffix},
	14: {q14Prefix, relal.Schema{floatCol("rev"), floatCol("promo_rev")}, q14Suffix},
	15: {q15Prefix, relal.Schema{intCol("l_suppkey"), floatCol("rev")}, q15Suffix},
	17: {q17Prefix, relal.Schema{
		intCol("p_partkey"), intCol("l_partkey"),
		floatCol("l_quantity"), floatCol("l_extendedprice")}, q17Suffix},
	18: {q18Prefix, relal.Schema{
		strCol("c_name"), intCol("c_custkey"), intCol("o_orderkey"),
		strCol("o_orderdate"), floatCol("o_totalprice"), floatCol("sum_qty")}, q18Suffix},
	19: {q19Prefix, relal.Schema{floatCol("rev")}, q19Suffix},
	20: {q20Prefix, relal.Schema{intCol("l_partkey"), intCol("l_suppkey"), floatCol("l_quantity")}, q20Suffix},
	21: {q21Prefix, relal.Schema{strCol("s_name"), intCol("l_orderkey")}, q21Suffix},
	22: {q22Prefix, relal.Schema{intCol("o_custkey")}, q22Suffix},
}

// intCol, floatCol and strCol spell the Ship schemas above.
func intCol(name string) relal.Column   { return relal.Column{Name: name, Type: relal.Int} }
func floatCol(name string) relal.Column { return relal.Column{Name: name, Type: relal.Float} }
func strCol(name string) relal.Column   { return relal.Column{Name: name, Type: relal.Str} }

// run is the single-process plan: the suffix over the whole prefix,
// run where the suffix reads it.
func (c Cut) run(e *relal.Exec, db *DB) *relal.Table {
	return c.Suffix(e, db, func() *relal.Table { return c.Prefix(e, db) })
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
