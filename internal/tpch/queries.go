package tpch

import (
	"strings"

	"elephants/internal/relal"
)

// Query is one of the 22 TPC-H queries, written once over the relal
// operators. Running Fn yields the answer table plus a step log that the
// Hive and PDW engines cost with their own physical strategies. The
// step order is the "written order" of the HIVE-600 scripts, which is
// what Hive executes literally (no cost-based reordering).
//
// Predicates and computed columns use the columnar accessor API: a
// query binds typed column accessors (IntCol/FloatCol/StrCol) once,
// then filters and extensions evaluate them per row index — no boxed
// cells, no per-row type switches.
type Query struct {
	ID     int
	Name   string
	Tables []string // base tables referenced
}

// Queries lists all 22 queries in benchmark order.
var Queries = []Query{
	{1, "pricing summary report", []string{"lineitem"}},
	{2, "minimum cost supplier", []string{"part", "supplier", "partsupp", "nation", "region"}},
	{3, "shipping priority", []string{"customer", "orders", "lineitem"}},
	{4, "order priority checking", []string{"orders", "lineitem"}},
	{5, "local supplier volume", []string{"customer", "orders", "lineitem", "supplier", "nation", "region"}},
	{6, "forecasting revenue change", []string{"lineitem"}},
	{7, "volume shipping", []string{"supplier", "lineitem", "orders", "customer", "nation"}},
	{8, "national market share", []string{"part", "supplier", "lineitem", "orders", "customer", "nation", "region"}},
	{9, "product type profit", []string{"part", "supplier", "lineitem", "partsupp", "orders", "nation"}},
	{10, "returned item reporting", []string{"customer", "orders", "lineitem", "nation"}},
	{11, "important stock identification", []string{"partsupp", "supplier", "nation"}},
	{12, "shipping modes and order priority", []string{"orders", "lineitem"}},
	{13, "customer distribution", []string{"customer", "orders"}},
	{14, "promotion effect", []string{"lineitem", "part"}},
	{15, "top supplier", []string{"supplier", "lineitem"}},
	{16, "parts/supplier relationship", []string{"partsupp", "part", "supplier"}},
	{17, "small-quantity-order revenue", []string{"lineitem", "part"}},
	{18, "large volume customer", []string{"customer", "orders", "lineitem"}},
	{19, "discounted revenue", []string{"lineitem", "part"}},
	{20, "potential part promotion", []string{"supplier", "nation", "partsupp", "part", "lineitem"}},
	{21, "suppliers who kept orders waiting", []string{"supplier", "lineitem", "orders", "nation"}},
	{22, "global sales opportunity", []string{"customer", "orders"}},
}

// DefaultWorkers sizes the morsel worker pool RunQuery executes with
// (0 = GOMAXPROCS, 1 = serial). cmd/tpchbench's -workers flag sets it
// once at startup; results are identical at every setting.
var DefaultWorkers int

// scan is the pushdown-aware base-table scan every query goes through:
// cols declares the columns the query references from the table and
// conds its sargable predicate, so a columnar source decompresses only
// the chunks that can matter. Pruning is conservative — the query still
// applies its full Filter afterwards — which is why the answers match a
// full scan byte-for-byte.
func scan(e *relal.Exec, db *DB, table string, cols []string, conds ...relal.ZoneCond) *relal.Table {
	return e.ScanSource(db.Src(table), cols, relal.ZonePredicate(conds))
}

// RunQuery executes query id against db, returning the answer and the
// step log. It panics on unknown ids (callers iterate Queries).
func RunQuery(id int, db *DB) (*relal.Table, relal.StepLog) {
	return RunQueryWorkers(id, db, DefaultWorkers)
}

// RunQueryWorkers executes query id with an explicit worker-pool size.
func RunQueryWorkers(id int, db *DB, workers int) (*relal.Table, relal.StepLog) {
	e := &relal.Exec{Parallelism: workers}
	var out *relal.Table
	switch id {
	case 1:
		out = q1(e, db)
	case 2:
		out = q2(e, db)
	case 3:
		out = q3(e, db)
	case 4:
		out = q4(e, db)
	case 5:
		out = q5(e, db)
	case 6:
		out = q6(e, db)
	case 7:
		out = q7(e, db)
	case 8:
		out = q8(e, db)
	case 9:
		out = q9(e, db)
	case 10:
		out = q10(e, db)
	case 11:
		out = q11(e, db)
	case 12:
		out = q12(e, db)
	case 13:
		out = q13(e, db)
	case 14:
		out = q14(e, db)
	case 15:
		out = q15(e, db)
	case 16:
		out = q16(e, db)
	case 17:
		out = q17(e, db)
	case 18:
		out = q18(e, db)
	case 19:
		out = q19(e, db)
	case 20:
		out = q20(e, db)
	case 21:
		out = q21(e, db)
	case 22:
		out = q22(e, db)
	default:
		panic("tpch: unknown query")
	}
	return out, e.Log
}

// discPrice appends the ubiquitous l_extendedprice*(1-l_discount)
// column under the given name.
func discPrice(e *relal.Exec, t *relal.Table, name string) *relal.Table {
	ep := t.FloatCol("l_extendedprice")
	dc := t.FloatCol("l_discount")
	return e.ExtendFloat(t, name, func(i int) float64 {
		return ep.Get(i) * (1 - dc.Get(i))
	})
}

// q1: scan lineitem, filter by shipdate, wide aggregation, sort. The
// shipdate predicate binds once through the StrVec factory: on the
// dict-encoded column it compares a uint32 code against a threshold,
// and the (l_returnflag, l_linestatus) group keys aggregate as codes.
func q1(e *relal.Exec, db *DB) *relal.Table {
	li := scan(e, db, "lineitem",
		[]string{"l_shipdate", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus"},
		relal.StrAtMost("l_shipdate", "1998-09-02"))
	f := e.Where(li, li.StrCol("l_shipdate").Le("1998-09-02"))
	f = discPrice(e, f, "disc_price")
	dp := f.FloatCol("disc_price")
	tax := f.FloatCol("l_tax")
	f = e.ExtendFloat(f, "charge", func(i int) float64 {
		return dp.Get(i) * (1 + tax.Get(i))
	})
	agg := e.Aggregate(f, []string{"l_returnflag", "l_linestatus"}, []relal.AggSpec{
		{Fn: "sum", Col: "l_quantity", As: "sum_qty"},
		{Fn: "sum", Col: "l_extendedprice", As: "sum_base_price"},
		{Fn: "sum", Col: "disc_price", As: "sum_disc_price"},
		{Fn: "sum", Col: "charge", As: "sum_charge"},
		{Fn: "avg", Col: "l_quantity", As: "avg_qty"},
		{Fn: "avg", Col: "l_extendedprice", As: "avg_price"},
		{Fn: "avg", Col: "l_discount", As: "avg_disc"},
		{Fn: "count", Col: "*", As: "count_order"},
	})
	return e.Sort(agg, relal.OrderSpec{Col: "l_returnflag"}, relal.OrderSpec{Col: "l_linestatus"})
}

// q2: min-cost supplier for size-15 BRASS parts in EUROPE.
func q2(e *relal.Exec, db *DB) *relal.Table {
	pt := scan(e, db, "part",
		[]string{"p_partkey", "p_mfgr", "p_type", "p_size"},
		relal.IntEq("p_size", 15))
	ptype := pt.StrCol("p_type")
	part := e.Where(pt, pt.IntCol("p_size").Eq(15),
		relal.PredFn(func(i int) bool { return strings.HasSuffix(ptype.Get(i), "BRASS") }))
	rt := scan(e, db, "region", []string{"r_regionkey", "r_name"},
		relal.StrEq("r_name", "EUROPE"))
	region := e.Where(rt, rt.StrCol("r_name").Eq("EUROPE"))
	nation := e.Join(scan(e, db, "nation", []string{"n_nationkey", "n_name", "n_regionkey"}), region, "n_regionkey", "r_regionkey")
	supp := e.Join(scan(e, db, "supplier",
		[]string{"s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment"}), nation, "s_nationkey", "n_nationkey")
	ps := e.Join(scan(e, db, "partsupp", []string{"ps_partkey", "ps_suppkey", "ps_supplycost"}), supp, "ps_suppkey", "s_suppkey")
	psp := e.Join(ps, part, "ps_partkey", "p_partkey")
	// Minimum supplycost per part (within EUROPE suppliers).
	minCost := e.Aggregate(psp, []string{"p_partkey"}, []relal.AggSpec{
		{Fn: "min", Col: "ps_supplycost", As: "min_cost"},
	})
	// Keep rows matching the per-part minimum.
	minIdx := make(map[int64]float64, minCost.NumRows())
	pk := minCost.IntCol("p_partkey")
	mc := minCost.FloatCol("min_cost")
	for i := 0; i < minCost.NumRows(); i++ {
		minIdx[pk.Get(i)] = mc.Get(i)
	}
	ppk := psp.IntCol("ps_partkey")
	cost := psp.FloatCol("ps_supplycost")
	final := e.Filter(psp, func(i int) bool {
		return cost.Get(i) == minIdx[ppk.Get(i)]
	})
	proj := e.Project(final, "s_acctbal", "s_name", "n_name", "p_partkey", "p_mfgr", "s_address", "s_phone", "s_comment")
	return e.TopK(proj, 100,
		relal.OrderSpec{Col: "s_acctbal", Desc: true},
		relal.OrderSpec{Col: "n_name"},
		relal.OrderSpec{Col: "s_name"},
		relal.OrderSpec{Col: "p_partkey"},
	)
}

// q3: top unshipped orders for the BUILDING segment.
func q3(e *relal.Exec, db *DB) *relal.Table {
	ct := scan(e, db, "customer", []string{"c_custkey", "c_mktsegment"},
		relal.StrEq("c_mktsegment", "BUILDING"))
	cust := e.Where(ct, ct.StrCol("c_mktsegment").Eq("BUILDING"))
	ot := scan(e, db, "orders",
		[]string{"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"},
		relal.StrAtMost("o_orderdate", "1995-03-15"))
	ord := e.Where(ot, ot.StrCol("o_orderdate").Lt("1995-03-15"))
	lt := scan(e, db, "lineitem",
		[]string{"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"},
		relal.StrAtLeast("l_shipdate", "1995-03-15"))
	li := e.Where(lt, lt.StrCol("l_shipdate").Gt("1995-03-15"))
	co := e.Join(ord, cust, "o_custkey", "c_custkey")
	col := e.Join(li, co, "l_orderkey", "o_orderkey")
	col = discPrice(e, col, "revenue_item")
	agg := e.Aggregate(col, []string{"l_orderkey", "o_orderdate", "o_shippriority"}, []relal.AggSpec{
		{Fn: "sum", Col: "revenue_item", As: "revenue"},
	})
	return e.TopK(agg, 10,
		relal.OrderSpec{Col: "revenue", Desc: true},
		relal.OrderSpec{Col: "o_orderdate"},
	)
}

// q4: order priority with existing late lineitem.
func q4(e *relal.Exec, db *DB) *relal.Table {
	return e.Sort(q4Partial(e, db), relal.OrderSpec{Col: "o_orderpriority"})
}

// q4Partial is Q4 up to (and including) the priority-count aggregate —
// the shard-local fragment of the distributed plan. Every scan, filter,
// and join keys on orderkey, so running it per hash partition and
// summing the counts reproduces the single-process aggregate exactly
// (counts are integers; no accumulation-order sensitivity).
func q4Partial(e *relal.Exec, db *DB) *relal.Table {
	ot := scan(e, db, "orders",
		[]string{"o_orderkey", "o_orderdate", "o_orderpriority"},
		relal.StrBetween("o_orderdate", "1993-07-01", "1993-10-01"))
	ord := e.Where(ot, ot.StrCol("o_orderdate").Range("1993-07-01", "1993-10-01"))
	lt := scan(e, db, "lineitem",
		[]string{"l_orderkey", "l_commitdate", "l_receiptdate"})
	cdate := lt.StrCol("l_commitdate")
	rdate := lt.StrCol("l_receiptdate")
	li := e.Filter(lt, func(i int) bool { return cdate.Get(i) < rdate.Get(i) })
	liKeys := e.Aggregate(li, []string{"l_orderkey"}, []relal.AggSpec{{Fn: "count", Col: "*", As: "n"}})
	sj := e.SemiJoin(ord, liKeys, "o_orderkey", "l_orderkey")
	return e.Aggregate(sj, []string{"o_orderpriority"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "order_count"},
	})
}

// q5: local supplier volume in ASIA. Written order follows the HIVE-600
// script the paper analyzes: nation⋈region, then supplier, then the big
// lineitem common join, then orders, then customer.
func q5(e *relal.Exec, db *DB) *relal.Table {
	rt := scan(e, db, "region", []string{"r_regionkey", "r_name"},
		relal.StrEq("r_name", "ASIA"))
	region := e.Where(rt, rt.StrCol("r_name").Eq("ASIA"))
	nr := e.Join(scan(e, db, "nation", []string{"n_nationkey", "n_name", "n_regionkey"}), region, "n_regionkey", "r_regionkey")
	snr := e.Join(scan(e, db, "supplier", []string{"s_suppkey", "s_nationkey"}), nr, "s_nationkey", "n_nationkey")
	lsnr := e.Join(scan(e, db, "lineitem",
		[]string{"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"}), snr, "l_suppkey", "s_suppkey")
	ot := scan(e, db, "orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		relal.StrBetween("o_orderdate", "1994-01-01", "1995-01-01"))
	ord := e.Where(ot, ot.StrCol("o_orderdate").Range("1994-01-01", "1995-01-01"))
	lo := e.Join(lsnr, ord, "l_orderkey", "o_orderkey")
	// Customer must be in the same nation as the supplier.
	loc := e.Join(lo, scan(e, db, "customer", []string{"c_custkey", "c_nationkey"}), "o_custkey", "c_custkey")
	ck := loc.IntCol("c_nationkey")
	sk := loc.IntCol("s_nationkey")
	same := e.Filter(loc, func(i int) bool { return ck.Get(i) == sk.Get(i) })
	same = discPrice(e, same, "rev")
	agg := e.Aggregate(same, []string{"n_name"}, []relal.AggSpec{
		{Fn: "sum", Col: "rev", As: "revenue"},
	})
	return e.Sort(agg, relal.OrderSpec{Col: "revenue", Desc: true})
}

// q6: single-table revenue forecast. The shipdate window binds once as
// a code range over the dictionary — per row the date test is two
// uint32 compares, no string ever touched.
func q6(e *relal.Exec, db *DB) *relal.Table {
	li := scan(e, db, "lineitem",
		[]string{"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"},
		relal.StrBetween("l_shipdate", "1994-01-01", "1995-01-01"),
		relal.FloatBetween("l_discount", 0.05-1e-9, 0.07+1e-9),
		relal.FloatAtMost("l_quantity", 24))
	f := e.Where(li,
		li.StrCol("l_shipdate").Range("1994-01-01", "1995-01-01"),
		li.FloatCol("l_discount").Between(0.05-1e-9, 0.07+1e-9),
		li.FloatCol("l_quantity").Lt(24),
	)
	ep := f.FloatCol("l_extendedprice")
	fdc := f.FloatCol("l_discount")
	f = e.ExtendFloat(f, "rev", func(i int) float64 {
		return ep.Get(i) * fdc.Get(i)
	})
	return e.Aggregate(f, nil, []relal.AggSpec{{Fn: "sum", Col: "rev", As: "revenue"}})
}

// q7: shipping volume between FRANCE and GERMANY.
func q7(e *relal.Exec, db *DB) *relal.Table {
	lt := scan(e, db, "lineitem",
		[]string{"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"},
		relal.StrBetween("l_shipdate", "1995-01-01", "1996-12-31"))
	li := e.Where(lt, lt.StrCol("l_shipdate").Between("1995-01-01", "1996-12-31"))
	ls := e.Join(li, scan(e, db, "supplier", []string{"s_suppkey", "s_nationkey"}), "l_suppkey", "s_suppkey")
	lso := e.Join(ls, scan(e, db, "orders", []string{"o_orderkey", "o_custkey"}), "l_orderkey", "o_orderkey")
	lsoc := e.Join(lso, scan(e, db, "customer", []string{"c_custkey", "c_nationkey"}), "o_custkey", "c_custkey")
	// Two nation joins: supplier nation and customer nation.
	n1 := e.Join(lsoc, scan(e, db, "nation", []string{"n_nationkey", "n_name"}), "s_nationkey", "n_nationkey")
	// Rename nation columns for the second join by extending first.
	nname := n1.StrCol("n_name")
	n1 = e.ExtendStr(n1, "supp_nation", func(i int) string { return nname.Get(i) })
	custNation := scan(e, db, "nation", []string{"n_nationkey", "n_name"})
	// nation2 shares the nation table's key/name vectors (zero copy).
	cn := relal.NewTable("nation2", relal.Schema{
		{Name: "n2_nationkey", Type: relal.Int},
		{Name: "cust_nation", Type: relal.Str},
	}, custNation.Cols[0], custNation.Cols[1])
	relal.SetBase(cn, "nation")
	n2 := e.Join(n1, cn, "c_nationkey", "n2_nationkey")
	sn := n2.StrCol("supp_nation")
	cu := n2.StrCol("cust_nation")
	f := e.Filter(n2, func(i int) bool {
		a, b := sn.Get(i), cu.Get(i)
		return (a == "FRANCE" && b == "GERMANY") || (a == "GERMANY" && b == "FRANCE")
	})
	fsd := f.StrCol("l_shipdate")
	f = e.ExtendStr(f, "l_year", func(i int) string { return fsd.Get(i)[:4] })
	f = discPrice(e, f, "volume")
	agg := e.Aggregate(f, []string{"supp_nation", "cust_nation", "l_year"}, []relal.AggSpec{
		{Fn: "sum", Col: "volume", As: "revenue"},
	})
	return e.Sort(agg,
		relal.OrderSpec{Col: "supp_nation"},
		relal.OrderSpec{Col: "cust_nation"},
		relal.OrderSpec{Col: "l_year"},
	)
}

// q8: BRAZIL's market share in AMERICA for a part type.
func q8(e *relal.Exec, db *DB) *relal.Table {
	pt := scan(e, db, "part", []string{"p_partkey", "p_type"},
		relal.StrEq("p_type", "ECONOMY ANODIZED STEEL"))
	part := e.Where(pt, pt.StrCol("p_type").Eq("ECONOMY ANODIZED STEEL"))
	lp := e.Join(scan(e, db, "lineitem",
		[]string{"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"}), part, "l_partkey", "p_partkey")
	lps := e.Join(lp, scan(e, db, "supplier", []string{"s_suppkey", "s_nationkey"}), "l_suppkey", "s_suppkey")
	ot := scan(e, db, "orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		relal.StrBetween("o_orderdate", "1995-01-01", "1996-12-31"))
	ord := e.Where(ot, ot.StrCol("o_orderdate").Between("1995-01-01", "1996-12-31"))
	lpso := e.Join(lps, ord, "l_orderkey", "o_orderkey")
	lpsoc := e.Join(lpso, scan(e, db, "customer", []string{"c_custkey", "c_nationkey"}), "o_custkey", "c_custkey")
	// Customer nation must be in AMERICA.
	rt := scan(e, db, "region", []string{"r_regionkey", "r_name"},
		relal.StrEq("r_name", "AMERICA"))
	region := e.Where(rt, rt.StrCol("r_name").Eq("AMERICA"))
	nr := e.Join(scan(e, db, "nation", []string{"n_nationkey", "n_regionkey"}), region, "n_regionkey", "r_regionkey")
	custAm := e.Join(lpsoc, nr, "c_nationkey", "n_nationkey")
	// Supplier nation name (shares the nation table's vectors).
	sn := relal.NewTable("nation_s", relal.Schema{
		{Name: "ns_nationkey", Type: relal.Int},
		{Name: "supp_nation", Type: relal.Str},
	}, db.Nation.Cols[0], db.Nation.Cols[1])
	relal.SetBase(sn, "nation")
	all := e.Join(custAm, sn, "s_nationkey", "ns_nationkey")
	aod := all.StrCol("o_orderdate")
	all = e.ExtendStr(all, "o_year", func(i int) string { return aod.Get(i)[:4] })
	all = discPrice(e, all, "volume")
	isBrazil := all.StrCol("supp_nation").Eq("BRAZIL")
	avol := all.FloatCol("volume")
	all = e.ExtendFloat(all, "brazil_volume", func(i int) float64 {
		if isBrazil.At(i) {
			return avol.Get(i)
		}
		return 0.0
	})
	agg := e.Aggregate(all, []string{"o_year"}, []relal.AggSpec{
		{Fn: "sum", Col: "brazil_volume", As: "brazil"},
		{Fn: "sum", Col: "volume", As: "total"},
	})
	tot := agg.FloatCol("total")
	bra := agg.FloatCol("brazil")
	agg = e.ExtendFloat(agg, "mkt_share", func(i int) float64 {
		t := tot.Get(i)
		if t == 0 {
			return 0.0
		}
		return bra.Get(i) / t
	})
	out := e.Project(agg, "o_year", "mkt_share")
	return e.Sort(out, relal.OrderSpec{Col: "o_year"})
}

// q9: profit by nation and year for green parts. The paper notes this
// query ran out of disk in Hive at 16 TB.
func q9(e *relal.Exec, db *DB) *relal.Table {
	pt := scan(e, db, "part", []string{"p_partkey", "p_name"})
	pname := pt.StrCol("p_name")
	part := e.Filter(pt, func(i int) bool { return strings.Contains(pname.Get(i), "green") })
	lp := e.Join(scan(e, db, "lineitem",
		[]string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount"}), part, "l_partkey", "p_partkey")
	lps := e.Join(lp, scan(e, db, "supplier", []string{"s_suppkey", "s_nationkey"}), "l_suppkey", "s_suppkey")
	// partsupp join on (partkey, suppkey): join on partkey then filter.
	lpsps := e.Join(lps, scan(e, db, "partsupp", []string{"ps_partkey", "ps_suppkey", "ps_supplycost"}), "l_partkey", "ps_partkey")
	sk := lpsps.IntCol("l_suppkey")
	pssk := lpsps.IntCol("ps_suppkey")
	match := e.Filter(lpsps, func(i int) bool { return sk.Get(i) == pssk.Get(i) })
	mo := e.Join(match, scan(e, db, "orders", []string{"o_orderkey", "o_orderdate"}), "l_orderkey", "o_orderkey")
	mon := e.Join(mo, scan(e, db, "nation", []string{"n_nationkey", "n_name"}), "s_nationkey", "n_nationkey")
	mod := mon.StrCol("o_orderdate")
	mon = e.ExtendStr(mon, "o_year", func(i int) string { return mod.Get(i)[:4] })
	ep := mon.FloatCol("l_extendedprice")
	dc := mon.FloatCol("l_discount")
	sc := mon.FloatCol("ps_supplycost")
	qty := mon.FloatCol("l_quantity")
	mon = e.ExtendFloat(mon, "amount", func(i int) float64 {
		return ep.Get(i)*(1-dc.Get(i)) - sc.Get(i)*qty.Get(i)
	})
	agg := e.Aggregate(mon, []string{"n_name", "o_year"}, []relal.AggSpec{
		{Fn: "sum", Col: "amount", As: "sum_profit"},
	})
	return e.Sort(agg,
		relal.OrderSpec{Col: "n_name"},
		relal.OrderSpec{Col: "o_year", Desc: true},
	)
}

// q10: customers who returned items.
func q10(e *relal.Exec, db *DB) *relal.Table {
	ot := scan(e, db, "orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		relal.StrBetween("o_orderdate", "1993-10-01", "1994-01-01"))
	ord := e.Where(ot, ot.StrCol("o_orderdate").Range("1993-10-01", "1994-01-01"))
	lt := scan(e, db, "lineitem",
		[]string{"l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"},
		relal.StrEq("l_returnflag", "R"))
	li := e.Where(lt, lt.StrCol("l_returnflag").Eq("R"))
	lo := e.Join(li, ord, "l_orderkey", "o_orderkey")
	loc := e.Join(lo, scan(e, db, "customer",
		[]string{"c_custkey", "c_name", "c_address", "c_nationkey", "c_phone", "c_acctbal", "c_comment"}), "o_custkey", "c_custkey")
	locn := e.Join(loc, scan(e, db, "nation", []string{"n_nationkey", "n_name"}), "c_nationkey", "n_nationkey")
	locn = discPrice(e, locn, "rev")
	agg := e.Aggregate(locn, []string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"}, []relal.AggSpec{
		{Fn: "sum", Col: "rev", As: "revenue"},
	})
	return e.TopK(agg, 20, relal.OrderSpec{Col: "revenue", Desc: true})
}

// q11: important stock in GERMANY.
func q11(e *relal.Exec, db *DB) *relal.Table {
	nt := scan(e, db, "nation", []string{"n_nationkey", "n_name"},
		relal.StrEq("n_name", "GERMANY"))
	nation := e.Where(nt, nt.StrCol("n_name").Eq("GERMANY"))
	sn := e.Join(scan(e, db, "supplier", []string{"s_suppkey", "s_nationkey"}), nation, "s_nationkey", "n_nationkey")
	ps := e.Join(scan(e, db, "partsupp",
		[]string{"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"}), sn, "ps_suppkey", "s_suppkey")
	cost := ps.FloatCol("ps_supplycost")
	avail := ps.IntCol("ps_availqty")
	ps = e.ExtendFloat(ps, "value", func(i int) float64 {
		return cost.Get(i) * float64(avail.Get(i))
	})
	total := e.Aggregate(ps, nil, []relal.AggSpec{{Fn: "sum", Col: "value", As: "total"}})
	// The spec's fraction is 0.0001/SF, which scales so the query
	// returns a similar-sized answer at every scale factor.
	threshold := 0.0
	if total.NumRows() > 0 {
		threshold = total.FloatCol("total").Get(0) * 0.0001 / db.SF
	}
	byPart := e.Aggregate(ps, []string{"ps_partkey"}, []relal.AggSpec{
		{Fn: "sum", Col: "value", As: "value"},
	})
	f := e.Where(byPart, byPart.FloatCol("value").Gt(threshold))
	return e.Sort(f, relal.OrderSpec{Col: "value", Desc: true})
}

// q12: shipping modes and order priority.
func q12(e *relal.Exec, db *DB) *relal.Table {
	return e.Sort(q12Partial(e, db), relal.OrderSpec{Col: "l_shipmode"})
}

// q12Partial is Q12 up to the per-shipmode sums — the shard-local
// fragment. The lineitem–orders join is colocated under orderkey
// hashing, and the summed columns hold only 0/1 integers, so per-shard
// partial sums (exact in float64) add back to the global answer with no
// rounding drift.
func q12Partial(e *relal.Exec, db *DB) *relal.Table {
	lt := scan(e, db, "lineitem",
		[]string{"l_orderkey", "l_shipdate", "l_commitdate", "l_receiptdate", "l_shipmode"},
		relal.StrBetween("l_receiptdate", "1994-01-01", "1995-01-01"))
	commit := lt.StrCol("l_commitdate")
	receipt := lt.StrCol("l_receiptdate")
	ship := lt.StrCol("l_shipdate")
	li := e.Where(lt,
		lt.StrCol("l_shipmode").In("MAIL", "SHIP"),
		lt.StrCol("l_receiptdate").Range("1994-01-01", "1995-01-01"),
		relal.PredFn(func(i int) bool {
			c := commit.Get(i)
			return c < receipt.Get(i) && ship.Get(i) < c
		}),
	)
	lo := e.Join(li, scan(e, db, "orders", []string{"o_orderkey", "o_orderpriority"}), "l_orderkey", "o_orderkey")
	isHigh := lo.StrCol("o_orderpriority").In("1-URGENT", "2-HIGH")
	lo = e.ExtendInt(lo, "high_line", func(i int) int64 {
		if isHigh.At(i) {
			return 1
		}
		return 0
	})
	high := lo.IntCol("high_line")
	lo = e.ExtendInt(lo, "low_line", func(i int) int64 {
		if high.Get(i) == 1 {
			return 0
		}
		return 1
	})
	return e.Aggregate(lo, []string{"l_shipmode"}, []relal.AggSpec{
		{Fn: "sum", Col: "high_line", As: "high_line_count"},
		{Fn: "sum", Col: "low_line", As: "low_line_count"},
	})
}

// q13: distribution of customers by order count.
func q13(e *relal.Exec, db *DB) *relal.Table {
	ot := scan(e, db, "orders", []string{"o_custkey", "o_comment"})
	ocomment := ot.StrCol("o_comment")
	ord := e.Filter(ot, func(i int) bool {
		c := ocomment.Get(i)
		j := strings.Index(c, "special")
		return j < 0 || !strings.Contains(c[j:], "requests")
	})
	perCust := e.Aggregate(ord, []string{"o_custkey"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "c_count"},
	})
	cust := scan(e, db, "customer", []string{"c_custkey"})
	// Left join: customers with no orders count 0. Model as join plus
	// the complement.
	joined := e.Join(cust, perCust, "c_custkey", "o_custkey")
	matched := e.Project(joined, "c_custkey", "c_count")
	unmatched := e.AntiJoin(cust, perCust, "c_custkey", "o_custkey")
	keys := make([]int64, 0, matched.NumRows()+unmatched.NumRows())
	counts := make([]int64, 0, matched.NumRows()+unmatched.NumRows())
	mk := matched.IntCol("c_custkey")
	mc := matched.IntCol("c_count")
	for i := 0; i < matched.NumRows(); i++ {
		keys = append(keys, mk.Get(i))
		counts = append(counts, mc.Get(i))
	}
	uk := unmatched.IntCol("c_custkey")
	for i := 0; i < unmatched.NumRows(); i++ {
		keys = append(keys, uk.Get(i))
		counts = append(counts, 0)
	}
	all := relal.NewTable("cust_counts", relal.Schema{
		{Name: "c_custkey", Type: relal.Int},
		{Name: "c_count", Type: relal.Int},
	}, relal.IntsV(keys), relal.IntsV(counts))
	dist := e.Aggregate(all, []string{"c_count"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "custdist"},
	})
	return e.Sort(dist,
		relal.OrderSpec{Col: "custdist", Desc: true},
		relal.OrderSpec{Col: "c_count", Desc: true},
	)
}

// q14: promotion effect for one month.
func q14(e *relal.Exec, db *DB) *relal.Table {
	lt := scan(e, db, "lineitem",
		[]string{"l_partkey", "l_extendedprice", "l_discount", "l_shipdate"},
		relal.StrBetween("l_shipdate", "1995-09-01", "1995-10-01"))
	li := e.Where(lt, lt.StrCol("l_shipdate").Range("1995-09-01", "1995-10-01"))
	lp := e.Join(li, scan(e, db, "part", []string{"p_partkey", "p_type"}), "l_partkey", "p_partkey")
	lp = discPrice(e, lp, "rev")
	// Prefix match as a code range: PROMO-typed parts are contiguous in
	// the sorted p_type dictionary.
	isPromo := lp.StrCol("p_type").HasPrefix("PROMO")
	rev := lp.FloatCol("rev")
	lp = e.ExtendFloat(lp, "promo_rev", func(i int) float64 {
		if isPromo.At(i) {
			return rev.Get(i)
		}
		return 0.0
	})
	agg := e.Aggregate(lp, nil, []relal.AggSpec{
		{Fn: "sum", Col: "promo_rev", As: "promo"},
		{Fn: "sum", Col: "rev", As: "total"},
	})
	promo := agg.FloatCol("promo")
	tot := agg.FloatCol("total")
	return e.ExtendFloat(agg, "promo_revenue", func(i int) float64 {
		t := tot.Get(i)
		if t == 0 {
			return 0.0
		}
		return 100 * promo.Get(i) / t
	})
}

// q15: top supplier by quarterly revenue.
func q15(e *relal.Exec, db *DB) *relal.Table {
	lt := scan(e, db, "lineitem",
		[]string{"l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"},
		relal.StrBetween("l_shipdate", "1996-01-01", "1996-04-01"))
	li := e.Where(lt, lt.StrCol("l_shipdate").Range("1996-01-01", "1996-04-01"))
	li = discPrice(e, li, "rev")
	revenue := e.Aggregate(li, []string{"l_suppkey"}, []relal.AggSpec{
		{Fn: "sum", Col: "rev", As: "total_revenue"},
	})
	maxRev := e.Aggregate(revenue, nil, []relal.AggSpec{
		{Fn: "max", Col: "total_revenue", As: "max_rev"},
	})
	mx := 0.0
	if maxRev.NumRows() > 0 {
		mx = maxRev.FloatCol("max_rev").Get(0)
	}
	top := e.Where(revenue, revenue.FloatCol("total_revenue").Ge(mx-1e-6))
	st := e.Join(top, scan(e, db, "supplier",
		[]string{"s_suppkey", "s_name", "s_address", "s_phone"}), "l_suppkey", "s_suppkey")
	proj := e.Project(st, "s_suppkey", "s_name", "s_address", "s_phone", "total_revenue")
	return e.Sort(proj, relal.OrderSpec{Col: "s_suppkey"})
}

// q16: supplier counts by part attributes, excluding complaint suppliers.
func q16(e *relal.Exec, db *DB) *relal.Table {
	sizes := map[int64]bool{49: true, 14: true, 23: true, 45: true, 19: true, 3: true, 36: true, 9: true}
	pt := scan(e, db, "part", []string{"p_partkey", "p_brand", "p_type", "p_size"},
		relal.IntBetween("p_size", 3, 49))
	psize := pt.IntCol("p_size")
	part := e.Where(pt,
		pt.StrCol("p_brand").Ne("Brand#45"),
		relal.Not(pt.StrCol("p_type").HasPrefix("MEDIUM POLISHED")),
		relal.PredFn(func(i int) bool { return sizes[psize.Get(i)] }),
	)
	st := scan(e, db, "supplier", []string{"s_suppkey", "s_comment"})
	scomment := st.StrCol("s_comment")
	complaints := e.Filter(st, func(i int) bool {
		c := scomment.Get(i)
		j := strings.Index(c, "Customer")
		return j >= 0 && strings.Contains(c[j:], "Complaints")
	})
	ps := e.AntiJoin(scan(e, db, "partsupp", []string{"ps_partkey", "ps_suppkey"}), complaints, "ps_suppkey", "s_suppkey")
	psp := e.Join(ps, part, "ps_partkey", "p_partkey")
	// count(distinct ps_suppkey): dedup then count.
	dedup := e.Aggregate(psp, []string{"p_brand", "p_type", "p_size", "ps_suppkey"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "n"},
	})
	agg := e.Aggregate(dedup, []string{"p_brand", "p_type", "p_size"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "supplier_cnt"},
	})
	return e.Sort(agg,
		relal.OrderSpec{Col: "supplier_cnt", Desc: true},
		relal.OrderSpec{Col: "p_brand"},
		relal.OrderSpec{Col: "p_type"},
		relal.OrderSpec{Col: "p_size"},
	)
}

// q17: small-quantity-order revenue for one brand/container.
func q17(e *relal.Exec, db *DB) *relal.Table {
	pt := scan(e, db, "part", []string{"p_partkey", "p_brand", "p_container"},
		relal.StrEq("p_brand", "Brand#23"),
		relal.StrEq("p_container", "MED BOX"))
	part := e.Where(pt,
		pt.StrCol("p_brand").Eq("Brand#23"),
		pt.StrCol("p_container").Eq("MED BOX"),
	)
	lp := e.Join(scan(e, db, "lineitem",
		[]string{"l_partkey", "l_quantity", "l_extendedprice"}), part, "l_partkey", "p_partkey")
	avgQty := e.Aggregate(lp, []string{"p_partkey"}, []relal.AggSpec{
		{Fn: "avg", Col: "l_quantity", As: "avg_qty"},
	})
	avgIdx := make(map[int64]float64, avgQty.NumRows())
	pk := avgQty.IntCol("p_partkey")
	aq := avgQty.FloatCol("avg_qty")
	for i := 0; i < avgQty.NumRows(); i++ {
		avgIdx[pk.Get(i)] = aq.Get(i)
	}
	lpk := lp.IntCol("l_partkey")
	qty := lp.FloatCol("l_quantity")
	f := e.Filter(lp, func(i int) bool {
		return qty.Get(i) < 0.2*avgIdx[lpk.Get(i)]
	})
	agg := e.Aggregate(f, nil, []relal.AggSpec{
		{Fn: "sum", Col: "l_extendedprice", As: "sum_price"},
	})
	sp := agg.FloatCol("sum_price")
	return e.ExtendFloat(agg, "avg_yearly", func(i int) float64 {
		return sp.Get(i) / 7.0
	})
}

// q18: large-volume customers (sum qty > 300).
func q18(e *relal.Exec, db *DB) *relal.Table {
	li := scan(e, db, "lineitem", []string{"l_orderkey", "l_quantity"})
	perOrder := e.Aggregate(li, []string{"l_orderkey"}, []relal.AggSpec{
		{Fn: "sum", Col: "l_quantity", As: "sum_qty"},
	})
	big := e.Where(perOrder, perOrder.FloatCol("sum_qty").Gt(300))
	bo := e.Join(big, scan(e, db, "orders",
		[]string{"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"}), "l_orderkey", "o_orderkey")
	boc := e.Join(bo, scan(e, db, "customer", []string{"c_custkey", "c_name"}), "o_custkey", "c_custkey")
	proj := e.Project(boc, "c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty")
	return e.TopK(proj, 100,
		relal.OrderSpec{Col: "o_totalprice", Desc: true},
		relal.OrderSpec{Col: "o_orderdate"},
	)
}

// q19: discounted revenue with the three-branch AND/OR predicate the
// paper's §3.3.4.1 analysis discusses.
func q19(e *relal.Exec, db *DB) *relal.Table {
	lp := e.Join(
		scan(e, db, "lineitem",
			[]string{"l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipinstruct", "l_shipmode"},
			relal.StrEq("l_shipinstruct", "DELIVER IN PERSON")),
		scan(e, db, "part", []string{"p_partkey", "p_brand", "p_size", "p_container"}),
		"l_partkey", "p_partkey")
	// Every string leg of the three-branch predicate binds to codes
	// once; per row the branch dispatch is integer compares only.
	brand := lp.StrCol("p_brand")
	container := lp.StrCol("p_container")
	b12, b23, b34 := brand.Eq("Brand#12"), brand.Eq("Brand#23"), brand.Eq("Brand#34")
	cSM := container.In("SM CASE", "SM BOX", "SM PACK", "SM PKG")
	cMED := container.In("MED BAG", "MED BOX", "MED PKG", "MED PACK")
	cLG := container.In("LG CASE", "LG BOX", "LG PACK", "LG PKG")
	wantMode := lp.StrCol("l_shipmode").In("AIR", "REG AIR")
	wantInstr := lp.StrCol("l_shipinstruct").Eq("DELIVER IN PERSON")
	qty := lp.FloatCol("l_quantity")
	size := lp.IntCol("p_size")
	f := e.Where(lp, wantMode, wantInstr, relal.PredFn(func(i int) bool {
		q := qty.Get(i)
		sz := size.Get(i)
		switch {
		case b12.At(i) && cSM.At(i) && q >= 1 && q <= 11 && sz >= 1 && sz <= 5:
			return true
		case b23.At(i) && cMED.At(i) && q >= 10 && q <= 20 && sz >= 1 && sz <= 10:
			return true
		case b34.At(i) && cLG.At(i) && q >= 20 && q <= 30 && sz >= 1 && sz <= 15:
			return true
		}
		return false
	}))
	f = discPrice(e, f, "rev")
	return e.Aggregate(f, nil, []relal.AggSpec{{Fn: "sum", Col: "rev", As: "revenue"}})
}

// q20: suppliers with surplus forest parts in CANADA.
func q20(e *relal.Exec, db *DB) *relal.Table {
	pt := scan(e, db, "part", []string{"p_partkey", "p_name"})
	part := e.Where(pt, pt.StrCol("p_name").HasPrefix("forest"))
	lt := scan(e, db, "lineitem",
		[]string{"l_partkey", "l_suppkey", "l_quantity", "l_shipdate"},
		relal.StrBetween("l_shipdate", "1994-01-01", "1995-01-01"))
	li := e.Where(lt, lt.StrCol("l_shipdate").Range("1994-01-01", "1995-01-01"))
	shipped := e.Aggregate(li, []string{"l_partkey", "l_suppkey"}, []relal.AggSpec{
		{Fn: "sum", Col: "l_quantity", As: "sum_qty"},
	})
	shippedIdx := make(map[[2]int64]float64, shipped.NumRows())
	spk := shipped.IntCol("l_partkey")
	ssk := shipped.IntCol("l_suppkey")
	sql := shipped.FloatCol("sum_qty")
	for i := 0; i < shipped.NumRows(); i++ {
		shippedIdx[[2]int64{spk.Get(i), ssk.Get(i)}] = sql.Get(i)
	}
	ps := e.SemiJoin(scan(e, db, "partsupp",
		[]string{"ps_partkey", "ps_suppkey", "ps_availqty"}), part, "ps_partkey", "p_partkey")
	pspk := ps.IntCol("ps_partkey")
	pssk := ps.IntCol("ps_suppkey")
	avail := ps.IntCol("ps_availqty")
	surplus := e.Filter(ps, func(i int) bool {
		return float64(avail.Get(i)) > 0.5*shippedIdx[[2]int64{pspk.Get(i), pssk.Get(i)}]
	})
	nt := scan(e, db, "nation", []string{"n_nationkey", "n_name"},
		relal.StrEq("n_name", "CANADA"))
	nation := e.Where(nt, nt.StrCol("n_name").Eq("CANADA"))
	supp := e.Join(scan(e, db, "supplier",
		[]string{"s_suppkey", "s_name", "s_address", "s_nationkey"}), nation, "s_nationkey", "n_nationkey")
	final := e.SemiJoin(supp, surplus, "s_suppkey", "ps_suppkey")
	proj := e.Project(final, "s_name", "s_address")
	return e.Sort(proj, relal.OrderSpec{Col: "s_name"})
}

// q21: suppliers in SAUDI ARABIA who kept multi-supplier orders waiting.
func q21(e *relal.Exec, db *DB) *relal.Table {
	li := scan(e, db, "lineitem",
		[]string{"l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"})
	// Suppliers per order, and late suppliers per order.
	perOrder := e.Aggregate(
		e.Aggregate(li, []string{"l_orderkey", "l_suppkey"}, []relal.AggSpec{{Fn: "count", Col: "*", As: "n"}}),
		[]string{"l_orderkey"}, []relal.AggSpec{{Fn: "count", Col: "*", As: "n_supp"}})
	rdate := li.StrCol("l_receiptdate")
	cdate := li.StrCol("l_commitdate")
	late := e.Filter(li, func(i int) bool { return rdate.Get(i) > cdate.Get(i) })
	latePerOrder := e.Aggregate(
		e.Aggregate(late, []string{"l_orderkey", "l_suppkey"}, []relal.AggSpec{{Fn: "count", Col: "*", As: "n"}}),
		[]string{"l_orderkey"}, []relal.AggSpec{{Fn: "count", Col: "*", As: "n_late"}})
	nSupp := make(map[int64]int64, perOrder.NumRows())
	pok := perOrder.IntCol("l_orderkey")
	pon := perOrder.IntCol("n_supp")
	for i := 0; i < perOrder.NumRows(); i++ {
		nSupp[pok.Get(i)] = pon.Get(i)
	}
	nLate := make(map[int64]int64, latePerOrder.NumRows())
	lok := latePerOrder.IntCol("l_orderkey")
	lon := latePerOrder.IntCol("n_late")
	for i := 0; i < latePerOrder.NumRows(); i++ {
		nLate[lok.Get(i)] = lon.Get(i)
	}
	// Candidate rows: this supplier was late, order has >1 suppliers,
	// and exactly one late supplier (this one), on F orders.
	ot := scan(e, db, "orders", []string{"o_orderkey", "o_orderstatus"},
		relal.StrEq("o_orderstatus", "F"))
	ord := e.Where(ot, ot.StrCol("o_orderstatus").Eq("F"))
	lko := late.IntCol("l_orderkey")
	lateRows := e.Filter(late, func(i int) bool {
		ok := lko.Get(i)
		return nSupp[ok] > 1 && nLate[ok] == 1
	})
	lo := e.SemiJoin(lateRows, ord, "l_orderkey", "o_orderkey")
	ls := e.Join(lo, scan(e, db, "supplier",
		[]string{"s_suppkey", "s_name", "s_nationkey"}), "l_suppkey", "s_suppkey")
	nt := scan(e, db, "nation", []string{"n_nationkey", "n_name"},
		relal.StrEq("n_name", "SAUDI ARABIA"))
	nation := e.Where(nt, nt.StrCol("n_name").Eq("SAUDI ARABIA"))
	lsn := e.Join(ls, nation, "s_nationkey", "n_nationkey")
	// One row per (order, supplier) — dedup before counting.
	dedup := e.Aggregate(lsn, []string{"s_name", "l_orderkey"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "n"},
	})
	agg := e.Aggregate(dedup, []string{"s_name"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "numwait"},
	})
	return e.TopK(agg, 100,
		relal.OrderSpec{Col: "numwait", Desc: true},
		relal.OrderSpec{Col: "s_name"},
	)
}

// q22: customers with above-average balances and no orders, by phone
// country code. In Hive this runs as four sub-queries (the paper's
// Table 5 breakdown).
func q22(e *relal.Exec, db *DB) *relal.Table {
	codes := map[string]bool{"13": true, "31": true, "23": true, "29": true, "30": true, "18": true, "17": true}
	ct := scan(e, db, "customer", []string{"c_custkey", "c_phone", "c_acctbal"})
	cphone := ct.StrCol("c_phone")
	// Sub-query 1: candidate customers by phone code.
	cust := e.Filter(ct, func(i int) bool { return codes[cphone.Get(i)[:2]] })
	// Sub-query 2: average positive balance among them.
	cbal := cust.FloatCol("c_acctbal")
	pos := e.Where(cust, cbal.Gt(0))
	avg := e.Aggregate(pos, nil, []relal.AggSpec{{Fn: "avg", Col: "c_acctbal", As: "avg_bal"}})
	avgBal := 0.0
	if avg.NumRows() > 0 {
		avgBal = avg.FloatCol("avg_bal").Get(0)
	}
	// Sub-query 3: order keys (customers with orders).
	ordCust := e.Aggregate(scan(e, db, "orders", []string{"o_custkey"}), []string{"o_custkey"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "n"},
	})
	// Sub-query 4: join it all.
	rich := e.Where(cust, cbal.Gt(avgBal))
	noOrders := e.AntiJoin(rich, ordCust, "c_custkey", "o_custkey")
	nphone := noOrders.StrCol("c_phone")
	noOrders = e.ExtendStr(noOrders, "cntrycode", func(i int) string {
		return nphone.Get(i)[:2]
	})
	agg := e.Aggregate(noOrders, []string{"cntrycode"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "numcust"},
		{Fn: "sum", Col: "c_acctbal", As: "totacctbal"},
	})
	return e.Sort(agg, relal.OrderSpec{Col: "cntrycode"})
}
