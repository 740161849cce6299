package tpch

import (
	"strings"

	"elephants/internal/relal"
)

// Query is one of the 22 TPC-H queries, written once over the relal
// operators. Run executes the plan; its step log is what the Hive and
// PDW engines cost with their own physical strategies. The step order
// is the "written order" of the HIVE-600 scripts, which is what Hive
// executes literally (no cost-based reordering).
//
// Predicates and computed columns use the columnar accessor API: a
// query binds typed column accessors (IntCol/FloatCol/StrCol) once,
// then filters and extensions evaluate them per row index — no boxed
// cells, no per-row type switches.
type Query struct {
	ID   int
	Name string
	Run  func(e *relal.Exec, db *DB) *relal.Table
}

// Queries lists all 22 queries in benchmark order.
var Queries = []Query{
	{1, "pricing summary report", Cuts[1].run},
	{2, "minimum cost supplier", q2},
	{3, "shipping priority", Cuts[3].run},
	{4, "order priority checking", Cuts[4].run},
	{5, "local supplier volume", Cuts[5].run},
	{6, "forecasting revenue change", Cuts[6].run},
	{7, "volume shipping", Cuts[7].run},
	{8, "national market share", Cuts[8].run},
	{9, "product type profit", Cuts[9].run},
	{10, "returned item reporting", Cuts[10].run},
	{11, "important stock identification", q11},
	{12, "shipping modes and order priority", Cuts[12].run},
	{13, "customer distribution", Cuts[13].run},
	{14, "promotion effect", Cuts[14].run},
	{15, "top supplier", Cuts[15].run},
	{16, "parts/supplier relationship", q16},
	{17, "small-quantity-order revenue", Cuts[17].run},
	{18, "large volume customer", Cuts[18].run},
	{19, "discounted revenue", Cuts[19].run},
	{20, "potential part promotion", Cuts[20].run},
	{21, "suppliers who kept orders waiting", Cuts[21].run},
	{22, "global sales opportunity", Cuts[22].run},
}

// DefaultWorkers sizes the morsel worker pool RunQuery executes with
// (0 = GOMAXPROCS, 1 = serial). cmd/tpchbench's -workers flag sets it
// once at startup; results are identical at every setting.
var DefaultWorkers int

// scan is the pushdown-aware base-table scan every query goes through:
// cols declares the columns the query references from the table and
// conds its sargable predicate, so a columnar source decompresses only
// the chunks that can matter. Pruning is conservative — it keeps every
// row group that may hold a matching row, and the plan applies the same
// conditions row by row (scanWhere, or ZoneCond.On inside its own
// Where) — which is why the answers match a full scan byte-for-byte.
func scan(e *relal.Exec, db *DB, table string, cols []string, conds ...relal.ZoneCond) *relal.Table {
	return e.ScanSource(db.Src(table), cols, relal.ZonePredicate(conds))
}

// scanWhere is scan followed by the one Where that applies its
// conditions to the rows.
func scanWhere(e *relal.Exec, db *DB, table string, cols []string, conds ...relal.ZoneCond) *relal.Table {
	t := scan(e, db, table, cols, conds...)
	return e.Where(t, relal.ZonePredicate(conds).On(t)...)
}

// RunQuery executes query id against db, returning the answer and the
// step log. It panics on unknown ids (callers iterate Queries).
func RunQuery(id int, db *DB) (*relal.Table, relal.StepLog) {
	return RunQueryWorkers(id, db, DefaultWorkers)
}

// RunQueryWorkers executes query id with an explicit worker-pool size.
func RunQueryWorkers(id int, db *DB, workers int) (*relal.Table, relal.StepLog) {
	if id < 1 || id > len(Queries) {
		panic("tpch: unknown query")
	}
	e := &relal.Exec{Parallelism: workers}
	out := Queries[id-1].Run(e, db)
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
// shipdate condition binds once: on the dict-encoded column it compares
// a uint32 code against a threshold, and the (l_returnflag,
// l_linestatus) group keys aggregate as codes.
func q1Prefix(e *relal.Exec, db *DB) *relal.Table {
	return scanWhere(e, db, "lineitem",
		posCols(db, "lineitem", "l_shipdate", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus"),
		relal.StrAtMost("l_shipdate", "1998-09-02"))
}

func q1Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	f := discPrice(e, prefix(), "disc_price")
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
	size := relal.IntEq("p_size", 15)
	pt := scan(e, db, "part", []string{"p_partkey", "p_mfgr", "p_type", "p_size"}, size)
	ptype := pt.StrCol("p_type")
	part := e.Where(pt, size.On(pt),
		relal.PredFn(func(i int) bool { return strings.HasSuffix(ptype.Get(i), "BRASS") }))
	region := scanWhere(e, db, "region", []string{"r_regionkey", "r_name"},
		relal.StrEq("r_name", "EUROPE"))
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
func q3Prefix(e *relal.Exec, db *DB) *relal.Table {
	cust := scanWhere(e, db, "customer", []string{"c_custkey", "c_mktsegment"},
		relal.StrEq("c_mktsegment", "BUILDING"))
	ord := scanWhere(e, db, "orders",
		[]string{"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"},
		relal.StrLess("o_orderdate", "1995-03-15"))
	li := scanWhere(e, db, "lineitem",
		posCols(db, "lineitem", "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"),
		relal.StrGreater("l_shipdate", "1995-03-15"))
	co := e.Join(ord, cust, "o_custkey", "c_custkey")
	col := e.Join(li, co, "l_orderkey", "o_orderkey")
	return discPrice(e, col, "revenue_item")
}

func q3Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	col := prefix()
	agg := e.Aggregate(col, []string{"l_orderkey", "o_orderdate", "o_shippriority"}, []relal.AggSpec{
		{Fn: "sum", Col: "revenue_item", As: "revenue"},
	})
	return e.TopK(agg, 10,
		relal.OrderSpec{Col: "revenue", Desc: true},
		relal.OrderSpec{Col: "o_orderdate"},
	)
}

// q4: order priority with existing late lineitem. The prefix's
// lineitem aggregate groups by orderkey, so it is colocated.
func q4Prefix(e *relal.Exec, db *DB) *relal.Table {
	ord := scanWhere(e, db, "orders",
		posCols(db, "orders", "o_orderkey", "o_orderdate", "o_orderpriority"),
		relal.StrRange("o_orderdate", "1993-07-01", "1993-10-01"))
	lt := scan(e, db, "lineitem",
		[]string{"l_orderkey", "l_commitdate", "l_receiptdate"})
	li := e.Where(lt, lt.StrCol("l_commitdate").Before(lt.StrCol("l_receiptdate")))
	liKeys := e.Aggregate(li, []string{"l_orderkey"}, []relal.AggSpec{{Fn: "count", Col: "*", As: "n"}})
	return e.SemiJoin(ord, liKeys, "o_orderkey", "l_orderkey")
}

func q4Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	sj := prefix()
	agg := e.Aggregate(sj, []string{"o_orderpriority"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "order_count"},
	})
	return e.Sort(agg, relal.OrderSpec{Col: "o_orderpriority"})
}

// q5: local supplier volume in ASIA. Written order follows the HIVE-600
// script the paper analyzes: nation⋈region, then supplier, then the big
// lineitem common join, then orders, then customer.
func q5Prefix(e *relal.Exec, db *DB) *relal.Table {
	region := scanWhere(e, db, "region", []string{"r_regionkey", "r_name"},
		relal.StrEq("r_name", "ASIA"))
	nr := e.Join(scan(e, db, "nation", []string{"n_nationkey", "n_name", "n_regionkey"}), region, "n_regionkey", "r_regionkey")
	snr := e.Join(scan(e, db, "supplier", []string{"s_suppkey", "s_nationkey"}), nr, "s_nationkey", "n_nationkey")
	lsnr := e.Join(scan(e, db, "lineitem",
		posCols(db, "lineitem", "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount")), snr, "l_suppkey", "s_suppkey")
	ord := scanWhere(e, db, "orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		relal.StrRange("o_orderdate", "1994-01-01", "1995-01-01"))
	lo := e.Join(lsnr, ord, "l_orderkey", "o_orderkey")
	// Customer must be in the same nation as the supplier.
	loc := e.Join(lo, scan(e, db, "customer", []string{"c_custkey", "c_nationkey"}), "o_custkey", "c_custkey")
	ck := loc.IntCol("c_nationkey")
	sk := loc.IntCol("s_nationkey")
	same := e.Filter(loc, func(i int) bool { return ck.Get(i) == sk.Get(i) })
	return discPrice(e, same, "rev")
}

func q5Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	same := prefix()
	agg := e.Aggregate(same, []string{"n_name"}, []relal.AggSpec{
		{Fn: "sum", Col: "rev", As: "revenue"},
	})
	return e.Sort(agg, relal.OrderSpec{Col: "revenue", Desc: true})
}

// q6: single-table revenue forecast. The shipdate window binds once as
// a code range over the dictionary — per row the date test is two
// uint32 compares, no string ever touched.
func q6Prefix(e *relal.Exec, db *DB) *relal.Table {
	f := scanWhere(e, db, "lineitem",
		posCols(db, "lineitem", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"),
		relal.StrRange("l_shipdate", "1994-01-01", "1995-01-01"),
		relal.FloatBetween("l_discount", 0.05-1e-9, 0.07+1e-9),
		relal.FloatLess("l_quantity", 24))
	ep := f.FloatCol("l_extendedprice")
	fdc := f.FloatCol("l_discount")
	return e.ExtendFloat(f, "rev", func(i int) float64 {
		return ep.Get(i) * fdc.Get(i)
	})
}

func q6Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	return e.Aggregate(prefix(), nil, []relal.AggSpec{{Fn: "sum", Col: "rev", As: "revenue"}})
}

// q7: shipping volume between FRANCE and GERMANY.
func q7Prefix(e *relal.Exec, db *DB) *relal.Table {
	li := scanWhere(e, db, "lineitem",
		posCols(db, "lineitem", "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"),
		relal.StrBetween("l_shipdate", "1995-01-01", "1996-12-31"))
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
	cn.Base = "nation"
	n2 := e.Join(n1, cn, "c_nationkey", "n2_nationkey")
	sn := n2.StrCol("supp_nation")
	cu := n2.StrCol("cust_nation")
	f := e.Filter(n2, func(i int) bool {
		a, b := sn.Get(i), cu.Get(i)
		return (a == "FRANCE" && b == "GERMANY") || (a == "GERMANY" && b == "FRANCE")
	})
	fsd := f.StrCol("l_shipdate")
	f = e.ExtendStr(f, "l_year", func(i int) string { return fsd.Get(i)[:4] })
	return discPrice(e, f, "volume")
}

func q7Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	f := prefix()
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
func q8Prefix(e *relal.Exec, db *DB) *relal.Table {
	part := scanWhere(e, db, "part", []string{"p_partkey", "p_type"},
		relal.StrEq("p_type", "ECONOMY ANODIZED STEEL"))
	lp := e.Join(scan(e, db, "lineitem",
		posCols(db, "lineitem", "l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount")),
		part, "l_partkey", "p_partkey")
	lps := e.Join(lp, scan(e, db, "supplier", []string{"s_suppkey", "s_nationkey"}), "l_suppkey", "s_suppkey")
	ord := scanWhere(e, db, "orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		relal.StrBetween("o_orderdate", "1995-01-01", "1996-12-31"))
	lpso := e.Join(lps, ord, "l_orderkey", "o_orderkey")
	lpsoc := e.Join(lpso, scan(e, db, "customer", []string{"c_custkey", "c_nationkey"}), "o_custkey", "c_custkey")
	// Customer nation must be in AMERICA.
	region := scanWhere(e, db, "region", []string{"r_regionkey", "r_name"},
		relal.StrEq("r_name", "AMERICA"))
	nr := e.Join(scan(e, db, "nation", []string{"n_nationkey", "n_regionkey"}), region, "n_regionkey", "r_regionkey")
	custAm := e.Join(lpsoc, nr, "c_nationkey", "n_nationkey")
	// Supplier nation name (shares the nation table's vectors).
	sn := relal.NewTable("nation_s", relal.Schema{
		{Name: "ns_nationkey", Type: relal.Int},
		{Name: "supp_nation", Type: relal.Str},
	}, db.Nation.Cols[0], db.Nation.Cols[1])
	sn.Base = "nation"
	all := e.Join(custAm, sn, "s_nationkey", "ns_nationkey")
	aod := all.StrCol("o_orderdate")
	all = e.ExtendStr(all, "o_year", func(i int) string { return aod.Get(i)[:4] })
	all = discPrice(e, all, "volume")
	isBrazil := relal.StrEq("supp_nation", "BRAZIL").On(all)
	avol := all.FloatCol("volume")
	return e.ExtendFloat(all, "brazil_volume", func(i int) float64 {
		if isBrazil.At(i) {
			return avol.Get(i)
		}
		return 0.0
	})
}

func q8Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	all := prefix()
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
func q9Prefix(e *relal.Exec, db *DB) *relal.Table {
	pt := scan(e, db, "part", []string{"p_partkey", "p_name"})
	pname := pt.StrCol("p_name")
	part := e.Filter(pt, func(i int) bool { return strings.Contains(pname.Get(i), "green") })
	lp := e.Join(scan(e, db, "lineitem",
		posCols(db, "lineitem", "l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount")),
		part, "l_partkey", "p_partkey")
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
	return e.ExtendFloat(mon, "amount", func(i int) float64 {
		return ep.Get(i)*(1-dc.Get(i)) - sc.Get(i)*qty.Get(i)
	})
}

func q9Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	mon := prefix()
	agg := e.Aggregate(mon, []string{"n_name", "o_year"}, []relal.AggSpec{
		{Fn: "sum", Col: "amount", As: "sum_profit"},
	})
	return e.Sort(agg,
		relal.OrderSpec{Col: "n_name"},
		relal.OrderSpec{Col: "o_year", Desc: true},
	)
}

// q10: customers who returned items.
func q10Prefix(e *relal.Exec, db *DB) *relal.Table {
	ord := scanWhere(e, db, "orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		relal.StrRange("o_orderdate", "1993-10-01", "1994-01-01"))
	li := scanWhere(e, db, "lineitem",
		posCols(db, "lineitem", "l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"),
		relal.StrEq("l_returnflag", "R"))
	lo := e.Join(li, ord, "l_orderkey", "o_orderkey")
	loc := e.Join(lo, scan(e, db, "customer",
		[]string{"c_custkey", "c_name", "c_address", "c_nationkey", "c_phone", "c_acctbal", "c_comment"}), "o_custkey", "c_custkey")
	locn := e.Join(loc, scan(e, db, "nation", []string{"n_nationkey", "n_name"}), "c_nationkey", "n_nationkey")
	return discPrice(e, locn, "rev")
}

func q10Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	locn := prefix()
	agg := e.Aggregate(locn, []string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"}, []relal.AggSpec{
		{Fn: "sum", Col: "rev", As: "revenue"},
	})
	return e.TopK(agg, 20, relal.OrderSpec{Col: "revenue", Desc: true})
}

// q11: important stock in GERMANY.
func q11(e *relal.Exec, db *DB) *relal.Table {
	nation := scanWhere(e, db, "nation", []string{"n_nationkey", "n_name"},
		relal.StrEq("n_name", "GERMANY"))
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
	f := e.Where(byPart, relal.FloatGreater("value", threshold).On(byPart))
	return e.Sort(f, relal.OrderSpec{Col: "value", Desc: true})
}

// q12: shipping modes and order priority.
func q12Prefix(e *relal.Exec, db *DB) *relal.Table {
	received := relal.StrRange("l_receiptdate", "1994-01-01", "1995-01-01")
	lt := scan(e, db, "lineitem",
		posCols(db, "lineitem", "l_orderkey", "l_shipdate", "l_commitdate", "l_receiptdate", "l_shipmode"), received)
	commit := lt.StrCol("l_commitdate")
	receipt := lt.StrCol("l_receiptdate")
	ship := lt.StrCol("l_shipdate")
	li := e.Where(lt,
		lt.StrCol("l_shipmode").In("MAIL", "SHIP"),
		received.On(lt),
		commit.Before(receipt),
		ship.Before(commit),
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
	return e.ExtendInt(lo, "low_line", func(i int) int64 {
		if high.Get(i) == 1 {
			return 0
		}
		return 1
	})
}

func q12Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	lo := prefix()
	agg := e.Aggregate(lo, []string{"l_shipmode"}, []relal.AggSpec{
		{Fn: "sum", Col: "high_line", As: "high_line_count"},
		{Fn: "sum", Col: "low_line", As: "low_line_count"},
	})
	return e.Sort(agg, relal.OrderSpec{Col: "l_shipmode"})
}

// q13: distribution of customers by order count.
func q13Prefix(e *relal.Exec, db *DB) *relal.Table {
	ot := scan(e, db, "orders", posCols(db, "orders", "o_custkey", "o_comment"))
	ocomment := ot.StrCol("o_comment")
	return e.Filter(ot, func(i int) bool {
		c := ocomment.Get(i)
		j := strings.Index(c, "special")
		return j < 0 || !strings.Contains(c[j:], "requests")
	})
}

func q13Suffix(e *relal.Exec, db *DB, prefix func() *relal.Table) *relal.Table {
	ord := prefix()
	perCust := e.Aggregate(ord, []string{"o_custkey"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "c_count"},
	})
	cust := scan(e, db, "customer", []string{"c_custkey"})
	// Left join: customers with no orders count 0. Model as join plus
	// the complement.
	joined := e.Join(cust, perCust, "c_custkey", "o_custkey")
	matched := e.Project(joined, "c_custkey", "c_count")
	unmatched := e.ExtendInt(e.AntiJoin(cust, perCust, "c_custkey", "o_custkey"), "c_count",
		func(int) int64 { return 0 })
	all := relal.Concat("cust_counts", matched.Schema, matched, unmatched)
	dist := e.Aggregate(all, []string{"c_count"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "custdist"},
	})
	return e.Sort(dist,
		relal.OrderSpec{Col: "custdist", Desc: true},
		relal.OrderSpec{Col: "c_count", Desc: true},
	)
}

// q14: promotion effect for one month.
func q14Prefix(e *relal.Exec, db *DB) *relal.Table {
	li := scanWhere(e, db, "lineitem",
		posCols(db, "lineitem", "l_partkey", "l_extendedprice", "l_discount", "l_shipdate"),
		relal.StrRange("l_shipdate", "1995-09-01", "1995-10-01"))
	lp := e.Join(li, scan(e, db, "part", []string{"p_partkey", "p_type"}), "l_partkey", "p_partkey")
	lp = discPrice(e, lp, "rev")
	// Prefix match as a code range: PROMO-typed parts are contiguous in
	// the sorted p_type dictionary.
	isPromo := lp.StrCol("p_type").HasPrefix("PROMO")
	rev := lp.FloatCol("rev")
	return e.ExtendFloat(lp, "promo_rev", func(i int) float64 {
		if isPromo.At(i) {
			return rev.Get(i)
		}
		return 0.0
	})
}

func q14Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	agg := e.Aggregate(prefix(), nil, []relal.AggSpec{
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
func q15Prefix(e *relal.Exec, db *DB) *relal.Table {
	li := scanWhere(e, db, "lineitem",
		posCols(db, "lineitem", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"),
		relal.StrRange("l_shipdate", "1996-01-01", "1996-04-01"))
	return discPrice(e, li, "rev")
}

func q15Suffix(e *relal.Exec, db *DB, prefix func() *relal.Table) *relal.Table {
	revenue := e.Aggregate(prefix(), []string{"l_suppkey"}, []relal.AggSpec{
		{Fn: "sum", Col: "rev", As: "total_revenue"},
	})
	maxRev := e.Aggregate(revenue, nil, []relal.AggSpec{
		{Fn: "max", Col: "total_revenue", As: "max_rev"},
	})
	mx := 0.0
	if maxRev.NumRows() > 0 {
		mx = maxRev.FloatCol("max_rev").Get(0)
	}
	top := e.Where(revenue, relal.FloatAtLeast("total_revenue", mx-1e-6).On(revenue))
	st := e.Join(top, scan(e, db, "supplier",
		[]string{"s_suppkey", "s_name", "s_address", "s_phone"}), "l_suppkey", "s_suppkey")
	proj := e.Project(st, "s_suppkey", "s_name", "s_address", "s_phone", "total_revenue")
	return e.Sort(proj, relal.OrderSpec{Col: "s_suppkey"})
}

// q16: supplier counts by part attributes, excluding complaint suppliers.
func q16(e *relal.Exec, db *DB) *relal.Table {
	sizes := map[int64]bool{49: true, 14: true, 23: true, 45: true, 19: true, 3: true, 36: true, 9: true}
	hull := relal.IntBetween("p_size", 3, 49) // the size set's [min, max]
	pt := scan(e, db, "part", []string{"p_partkey", "p_brand", "p_type", "p_size"}, hull)
	psize := pt.IntCol("p_size")
	part := e.Where(pt,
		pt.StrCol("p_brand").Ne("Brand#45"),
		relal.Not(pt.StrCol("p_type").HasPrefix("MEDIUM POLISHED")),
		hull.On(pt),
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
func q17Prefix(e *relal.Exec, db *DB) *relal.Table {
	part := scanWhere(e, db, "part", []string{"p_partkey", "p_brand", "p_container"},
		relal.StrEq("p_brand", "Brand#23"),
		relal.StrEq("p_container", "MED BOX"))
	return e.Join(scan(e, db, "lineitem", posCols(db, "lineitem", "l_partkey", "l_quantity", "l_extendedprice")),
		part, "l_partkey", "p_partkey")
}

func q17Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	lp := prefix()
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

// q18: large-volume customers (sum qty > 300). The prefix's spine
// starts with an aggregate grouped by orderkey, which carries each
// order's first position where lineitem has one (posAggs).
func q18Prefix(e *relal.Exec, db *DB) *relal.Table {
	li := scan(e, db, "lineitem", posCols(db, "lineitem", "l_orderkey", "l_quantity"))
	perOrder := e.Aggregate(li, []string{"l_orderkey"}, posAggs(li,
		relal.AggSpec{Fn: "sum", Col: "l_quantity", As: "sum_qty"}))
	big := e.Where(perOrder, relal.FloatGreater("sum_qty", 300).On(perOrder))
	bo := e.Join(big, scan(e, db, "orders",
		[]string{"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"}), "l_orderkey", "o_orderkey")
	return e.Join(bo, scan(e, db, "customer", []string{"c_custkey", "c_name"}), "o_custkey", "c_custkey")
}

func q18Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	boc := prefix()
	proj := e.Project(boc, "c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty")
	return e.TopK(proj, 100,
		relal.OrderSpec{Col: "o_totalprice", Desc: true},
		relal.OrderSpec{Col: "o_orderdate"},
	)
}

// q19: discounted revenue with the three-branch AND/OR predicate the
// paper's §3.3.4.1 analysis discusses.
func q19Prefix(e *relal.Exec, db *DB) *relal.Table {
	inPerson := relal.StrEq("l_shipinstruct", "DELIVER IN PERSON")
	lp := e.Join(
		scan(e, db, "lineitem",
			posCols(db, "lineitem", "l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipinstruct", "l_shipmode"),
			inPerson),
		scan(e, db, "part", []string{"p_partkey", "p_brand", "p_size", "p_container"}),
		"l_partkey", "p_partkey")
	// Every string leg of the three-branch predicate binds to codes
	// once; per row the branch dispatch is integer compares only.
	container := lp.StrCol("p_container")
	b12 := relal.StrEq("p_brand", "Brand#12").On(lp)
	b23 := relal.StrEq("p_brand", "Brand#23").On(lp)
	b34 := relal.StrEq("p_brand", "Brand#34").On(lp)
	cSM := container.In("SM CASE", "SM BOX", "SM PACK", "SM PKG")
	cMED := container.In("MED BAG", "MED BOX", "MED PKG", "MED PACK")
	cLG := container.In("LG CASE", "LG BOX", "LG PACK", "LG PKG")
	wantMode := lp.StrCol("l_shipmode").In("AIR", "REG AIR")
	qty := lp.FloatCol("l_quantity")
	size := lp.IntCol("p_size")
	f := e.Where(lp, wantMode, inPerson.On(lp), relal.PredFn(func(i int) bool {
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
	return discPrice(e, f, "rev")
}

func q19Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	f := prefix()
	return e.Aggregate(f, nil, []relal.AggSpec{{Fn: "sum", Col: "rev", As: "revenue"}})
}

// q20: suppliers with surplus forest parts in CANADA. The written order
// scans part before lineitem, so the suffix reads the prefix second.
func q20Prefix(e *relal.Exec, db *DB) *relal.Table {
	return scanWhere(e, db, "lineitem",
		posCols(db, "lineitem", "l_partkey", "l_suppkey", "l_quantity", "l_shipdate"),
		relal.StrRange("l_shipdate", "1994-01-01", "1995-01-01"))
}

func q20Suffix(e *relal.Exec, db *DB, prefix func() *relal.Table) *relal.Table {
	pt := scan(e, db, "part", []string{"p_partkey", "p_name"})
	part := e.Where(pt, pt.StrCol("p_name").HasPrefix("forest"))
	shipped := e.Aggregate(prefix(), []string{"l_partkey", "l_suppkey"}, []relal.AggSpec{
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
	nation := scanWhere(e, db, "nation", []string{"n_nationkey", "n_name"},
		relal.StrEq("n_name", "CANADA"))
	supp := e.Join(scan(e, db, "supplier",
		[]string{"s_suppkey", "s_name", "s_address", "s_nationkey"}), nation, "s_nationkey", "n_nationkey")
	final := e.SemiJoin(supp, surplus, "s_suppkey", "ps_suppkey")
	proj := e.Project(final, "s_name", "s_address")
	return e.Sort(proj, relal.OrderSpec{Col: "s_name"})
}

// q21: suppliers in SAUDI ARABIA who kept multi-supplier orders
// waiting. The per-order phases group by orderkey, so are colocated.
func q21Prefix(e *relal.Exec, db *DB) *relal.Table {
	li := scan(e, db, "lineitem",
		posCols(db, "lineitem", "l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"))
	// Suppliers per order, and late suppliers per order.
	perOrder := e.Aggregate(
		e.Aggregate(li, []string{"l_orderkey", "l_suppkey"}, []relal.AggSpec{{Fn: "count", Col: "*", As: "n"}}),
		[]string{"l_orderkey"}, []relal.AggSpec{{Fn: "count", Col: "*", As: "n_supp"}})
	late := e.Where(li, li.StrCol("l_commitdate").Before(li.StrCol("l_receiptdate")))
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
	ord := scanWhere(e, db, "orders", []string{"o_orderkey", "o_orderstatus"},
		relal.StrEq("o_orderstatus", "F"))
	lko := late.IntCol("l_orderkey")
	lateRows := e.Filter(late, func(i int) bool {
		ok := lko.Get(i)
		return nSupp[ok] > 1 && nLate[ok] == 1
	})
	lo := e.SemiJoin(lateRows, ord, "l_orderkey", "o_orderkey")
	ls := e.Join(lo, scan(e, db, "supplier",
		[]string{"s_suppkey", "s_name", "s_nationkey"}), "l_suppkey", "s_suppkey")
	nation := scanWhere(e, db, "nation", []string{"n_nationkey", "n_name"},
		relal.StrEq("n_name", "SAUDI ARABIA"))
	return e.Join(ls, nation, "s_nationkey", "n_nationkey")
}

func q21Suffix(e *relal.Exec, _ *DB, prefix func() *relal.Table) *relal.Table {
	lsn := prefix()
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
// Table 5 breakdown); the third is the prefix, read after the first two.
func q22Prefix(e *relal.Exec, db *DB) *relal.Table {
	return scan(e, db, "orders", posCols(db, "orders", "o_custkey"))
}

func q22Suffix(e *relal.Exec, db *DB, prefix func() *relal.Table) *relal.Table {
	codes := map[string]bool{"13": true, "31": true, "23": true, "29": true, "30": true, "18": true, "17": true}
	ct := scan(e, db, "customer", []string{"c_custkey", "c_phone", "c_acctbal"})
	cphone := ct.StrCol("c_phone")
	// Sub-query 1: candidate customers by phone code.
	cust := e.Filter(ct, func(i int) bool { return codes[cphone.Get(i)[:2]] })
	// Sub-query 2: average positive balance among them.
	pos := e.Where(cust, relal.FloatGreater("c_acctbal", 0).On(cust))
	avg := e.Aggregate(pos, nil, []relal.AggSpec{{Fn: "avg", Col: "c_acctbal", As: "avg_bal"}})
	avgBal := 0.0
	if avg.NumRows() > 0 {
		avgBal = avg.FloatCol("avg_bal").Get(0)
	}
	// Sub-query 3: order keys (customers with orders).
	ordCust := e.Aggregate(prefix(), []string{"o_custkey"}, []relal.AggSpec{
		{Fn: "count", Col: "*", As: "n"},
	})
	// Sub-query 4: join it all.
	rich := e.Where(cust, relal.FloatGreater("c_acctbal", avgBal).On(cust))
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
