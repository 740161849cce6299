// Package tpch implements the TPC-H substrate: a dbgen-equivalent data
// generator (all eight tables, spec-faithful key sparsity, and the
// 32-bit RANDOM overflow bug the paper hit at SF 16000 together with its
// RANDOM64 fix), the twenty-two benchmark queries written once over the
// relal operators, and scale-factor arithmetic used by the engines to
// extrapolate laptop-scale runs to the paper's 250 GB–16 TB points.
//
// The generator emits typed column vectors directly — each table is
// built as parallel []int64/[]float64/[]string slices and handed to
// relal without ever boxing a cell. The random-draw order per row is
// fixed (it defines the deterministic dataset for a given seed) and
// matches the original row-at-a-time generator exactly.
package tpch

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"elephants/internal/relal"
)

// Scale-factor row counts per the TPC-H specification (rows at SF 1).
const (
	RegionRows    = 5
	NationRows    = 25
	SupplierPerSF = 10_000
	CustomerPerSF = 150_000
	PartPerSF     = 200_000
	PartSuppPerSF = 800_000
	OrdersPerSF   = 1_500_000
	// LineitemPerOrder is the average lineitems per order (1–7 uniform).
	LineitemPerOrder = 4
)

// Rows returns the row count of the named table at scale factor sf.
func Rows(table string, sf float64) int64 {
	switch table {
	case "region":
		return RegionRows
	case "nation":
		return NationRows
	case "supplier":
		return int64(SupplierPerSF * sf)
	case "customer":
		return int64(CustomerPerSF * sf)
	case "part":
		return int64(PartPerSF * sf)
	case "partsupp":
		return int64(PartSuppPerSF * sf)
	case "orders":
		return int64(OrdersPerSF * sf)
	case "lineitem":
		return int64(OrdersPerSF * sf * LineitemPerOrder)
	}
	panic("tpch: unknown table " + table)
}

// TableNames lists the eight base tables.
var TableNames = []string{
	"region", "nation", "supplier", "customer",
	"part", "partsupp", "orders", "lineitem",
}

// nations is the spec's nation list with its region assignment.
var nations = []struct {
	name   string
	region int64
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

var shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

var shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

var containers1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
var containers2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}

var typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
var typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

var nameWords = []string{
	"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
	"blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
	"chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
	"dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
	"frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
	"hot", "hoary", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
	"lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic",
	"midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
	"orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder",
	"puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
	"sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
	"steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow",
}

// Epoch arithmetic: dates run 1992-01-01 .. 1998-12-31. We generate ISO
// strings from a day offset using a simple calendar.
var monthDays = [...]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// dateString converts a day offset from 1992-01-01 to an ISO date.
func dateString(offset int) string {
	year := 1992
	for {
		days := 365
		if isLeap(year) {
			days = 366
		}
		if offset < days {
			break
		}
		offset -= days
		year++
	}
	month := 0
	for {
		d := monthDays[month]
		if month == 1 && isLeap(year) {
			d++
		}
		if offset < d {
			break
		}
		offset -= d
		month++
	}
	return fmt.Sprintf("%04d-%02d-%02d", year, month+1, offset+1)
}

func isLeap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

// totalDays is the generator's date range (1992-01-01 through
// 1998-08-02 for shipdates per the spec's o_orderdate + intervals).
const orderDateDays = 2406 // orderdates span 1992-01-01 .. 1998-08-02

// DB holds the eight generated tables. Tables are immutable after
// generation, and the lazily-populated source registry is mutex-guarded,
// so one DB can serve any number of concurrent query streams.
type DB struct {
	SF       float64
	Region   *relal.Table
	Nation   *relal.Table
	Supplier *relal.Table
	Customer *relal.Table
	Part     *relal.Table
	PartSupp *relal.Table
	Orders   *relal.Table
	Lineitem *relal.Table

	// srcMu guards srcs: Src is called from every scan of every stream
	// and creates in-memory TableSources on first use.
	srcMu sync.Mutex
	// srcs holds the scan sources queries read base tables through;
	// unset entries default to in-memory TableSources over the tables
	// above. SetSource swaps in other backends (e.g. rcfile.Source).
	srcs map[string]relal.Source
}

// Src returns the scan source serving the named base table. Safe for
// concurrent use.
func (db *DB) Src(name string) relal.Source {
	db.srcMu.Lock()
	defer db.srcMu.Unlock()
	if s, ok := db.srcs[name]; ok {
		return s
	}
	if db.srcs == nil {
		db.srcs = make(map[string]relal.Source)
	}
	s := relal.NewTableSource(db.Table(name))
	db.srcs[name] = s
	return s
}

// SetSource installs a storage backend for the named base table; query
// scans go through it from then on. The in-memory table stays available
// via Table for generators and layout arithmetic.
func (db *DB) SetSource(name string, s relal.Source) {
	db.srcMu.Lock()
	defer db.srcMu.Unlock()
	if db.srcs == nil {
		db.srcs = make(map[string]relal.Source)
	}
	db.srcs[name] = s
}

// Table returns the named base table.
func (db *DB) Table(name string) *relal.Table {
	switch name {
	case "region":
		return db.Region
	case "nation":
		return db.Nation
	case "supplier":
		return db.Supplier
	case "customer":
		return db.Customer
	case "part":
		return db.Part
	case "partsupp":
		return db.PartSupp
	case "orders":
		return db.Orders
	case "lineitem":
		return db.Lineitem
	}
	panic("tpch: unknown table " + name)
}

// DefaultDictColumns lists the Str columns the generator
// dictionary-encodes by default: the spec's enumerated low-cardinality
// columns (l_returnflag has 3 values, l_linestatus 2, l_shipmode 7,
// o_orderpriority 5, c_mktsegment 5, p_brand 25, p_type 150, …) plus
// the date columns (~2.4k distinct ISO strings). Every kernel operates
// on the codes; the decoded answers are byte-identical to raw-string
// generation.
var DefaultDictColumns = []string{
	"l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct",
	"l_shipdate", "l_commitdate", "l_receiptdate",
	"o_orderstatus", "o_orderpriority", "o_orderdate",
	"c_mktsegment",
	"p_mfgr", "p_brand", "p_type", "p_container",
	"n_name", "r_name",
}

// GenConfig controls generation.
type GenConfig struct {
	SF   float64
	Seed int64
	// Random64 selects the 64-bit key generator. With Random64 false
	// and key ranges beyond 2^31, generated partkey/custkey values
	// overflow and go negative — the dbgen bug the paper found at the
	// 16 TB scale factor and fixed with RANDOM64.
	Random64 bool
	// DictColumns names the Str columns to dictionary-encode after
	// generation: nil = DefaultDictColumns, empty non-nil = none, which
	// leaves every Str column as raw []string.
	DictColumns []string
}

// Generate builds a TPC-H database at the given scale factor. Laptop
// scale factors (0.001–0.1) generate in milliseconds–seconds.
func Generate(cfg GenConfig) *DB {
	if cfg.SF <= 0 {
		cfg.SF = 0.01
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	db := &DB{SF: cfg.SF}
	db.Region = genRegion()
	db.Nation = genNation()
	db.Supplier = genSupplier(cfg, rng)
	db.Customer = genCustomer(cfg, rng)
	db.Part = genPart(cfg, rng)
	db.PartSupp = genPartSupp(cfg, rng)
	db.Orders, db.Lineitem = genOrdersLineitem(cfg, rng)
	cols := cfg.DictColumns
	if cols == nil {
		cols = DefaultDictColumns
	}
	db.encodeDictColumns(cols)
	return db
}

// encodeDictColumns replaces the named Str columns' vectors with their
// dictionary encoding (sorted distinct values + per-row codes). Run
// before any source or scan-info caching exists, so every downstream
// consumer — kernels, RCFile encoding, cost accounting — sees the dict
// vectors from the start.
func (db *DB) encodeDictColumns(cols []string) {
	want := make(map[string]bool, len(cols))
	for _, c := range cols {
		want[c] = true
	}
	for _, name := range TableNames {
		t := db.Table(name)
		for ci, c := range t.Schema {
			if c.Type == relal.Str && want[c.Name] {
				t.Cols[ci] = relal.EncodeDict(t.Cols[ci].Strs)
			}
		}
	}
}

// RandomKey reproduces dbgen's RANDOM macro: 32-bit arithmetic that
// overflows (yielding negative keys) when the range exceeds int32, as
// at SF 16000. RandomKey64 is the RANDOM64 fix.
func RandomKey(rng *rand.Rand, lo, hi int64) int64 {
	span := int32(hi - lo + 1) // overflow happens here at huge SF
	if span <= 0 {
		// Overflowed: dbgen produced garbage negative keys.
		return lo + int64(int32(rng.Uint32()))
	}
	return lo + int64(rng.Int31n(span))
}

// RandomKey64 is the 64-bit replacement used after the fix.
func RandomKey64(rng *rand.Rand, lo, hi int64) int64 {
	return lo + rng.Int63n(hi-lo+1)
}

func (cfg GenConfig) key(rng *rand.Rand, lo, hi int64) int64 {
	if cfg.Random64 {
		return RandomKey64(rng, lo, hi)
	}
	return RandomKey(rng, lo, hi)
}

func comment(rng *rand.Rand, words int) string {
	out := make([]byte, 0, words*8)
	for i := 0; i < words; i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, nameWords[rng.Intn(len(nameWords))]...)
	}
	return string(out)
}

func genRegion() *relal.Table {
	keys := make([]int64, 0, RegionRows)
	names := make([]string, 0, RegionRows)
	comments := make([]string, 0, RegionRows)
	for i, r := range regions {
		keys = append(keys, int64(i))
		names = append(names, r)
		comments = append(comments, "region comment")
	}
	return relal.NewTable("region", relal.Schema{
		{Name: "r_regionkey", Type: relal.Int},
		{Name: "r_name", Type: relal.Str},
		{Name: "r_comment", Type: relal.Str},
	}, relal.IntsV(keys), relal.StrsV(names), relal.StrsV(comments))
}

func genNation() *relal.Table {
	keys := make([]int64, 0, NationRows)
	names := make([]string, 0, NationRows)
	regionKeys := make([]int64, 0, NationRows)
	comments := make([]string, 0, NationRows)
	for i, n := range nations {
		keys = append(keys, int64(i))
		names = append(names, n.name)
		regionKeys = append(regionKeys, n.region)
		comments = append(comments, "nation comment")
	}
	return relal.NewTable("nation", relal.Schema{
		{Name: "n_nationkey", Type: relal.Int},
		{Name: "n_name", Type: relal.Str},
		{Name: "n_regionkey", Type: relal.Int},
		{Name: "n_comment", Type: relal.Str},
	}, relal.IntsV(keys), relal.StrsV(names), relal.IntsV(regionKeys), relal.StrsV(comments))
}

func genSupplier(cfg GenConfig, rng *rand.Rand) *relal.Table {
	n := Rows("supplier", cfg.SF)
	suppkey := make([]int64, 0, n)
	name := make([]string, 0, n)
	address := make([]string, 0, n)
	nationkey := make([]int64, 0, n)
	phones := make([]string, 0, n)
	acctbal := make([]float64, 0, n)
	comments := make([]string, 0, n)
	for i := int64(1); i <= n; i++ {
		nk := int64(rng.Intn(NationRows))
		com := comment(rng, 5)
		// The spec plants the "Customer ... Complaints" marker used by
		// Q16 in 5 of every 10,000 suppliers; at laptop scale factors
		// that would round to zero, so the rate is raised to 1 in 200
		// to keep the query selective but non-degenerate.
		if rng.Intn(200) == 0 {
			com = "Customer " + com + " Complaints"
		}
		suppkey = append(suppkey, i)
		name = append(name, fmt.Sprintf("Supplier#%09d", i))
		address = append(address, comment(rng, 2))
		nationkey = append(nationkey, nk)
		phones = append(phones, phone(nk, rng))
		acctbal = append(acctbal, float64(rng.Intn(2000000))/100-999.99)
		comments = append(comments, com)
	}
	return relal.NewTable("supplier", relal.Schema{
		{Name: "s_suppkey", Type: relal.Int},
		{Name: "s_name", Type: relal.Str},
		{Name: "s_address", Type: relal.Str},
		{Name: "s_nationkey", Type: relal.Int},
		{Name: "s_phone", Type: relal.Str},
		{Name: "s_acctbal", Type: relal.Float},
		{Name: "s_comment", Type: relal.Str},
	}, relal.IntsV(suppkey), relal.StrsV(name), relal.StrsV(address),
		relal.IntsV(nationkey), relal.StrsV(phones), relal.FloatsV(acctbal),
		relal.StrsV(comments))
}

func phone(nationkey int64, rng *rand.Rand) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", nationkey+10, rng.Intn(900)+100, rng.Intn(900)+100, rng.Intn(9000)+1000)
}

func genCustomer(cfg GenConfig, rng *rand.Rand) *relal.Table {
	n := Rows("customer", cfg.SF)
	custkey := make([]int64, 0, n)
	name := make([]string, 0, n)
	address := make([]string, 0, n)
	nationkey := make([]int64, 0, n)
	phones := make([]string, 0, n)
	acctbal := make([]float64, 0, n)
	mktsegment := make([]string, 0, n)
	comments := make([]string, 0, n)
	for i := int64(1); i <= n; i++ {
		nk := int64(rng.Intn(NationRows))
		com := comment(rng, 6)
		if rng.Intn(50) == 0 {
			com = "special " + com + " requests" // Q13 anti-pattern
		}
		custkey = append(custkey, i)
		name = append(name, fmt.Sprintf("Customer#%09d", i))
		address = append(address, comment(rng, 2))
		nationkey = append(nationkey, nk)
		phones = append(phones, phone(nk, rng))
		acctbal = append(acctbal, float64(rng.Intn(2000000))/100-999.99)
		mktsegment = append(mktsegment, segments[rng.Intn(len(segments))])
		comments = append(comments, com)
	}
	return relal.NewTable("customer", relal.Schema{
		{Name: "c_custkey", Type: relal.Int},
		{Name: "c_name", Type: relal.Str},
		{Name: "c_address", Type: relal.Str},
		{Name: "c_nationkey", Type: relal.Int},
		{Name: "c_phone", Type: relal.Str},
		{Name: "c_acctbal", Type: relal.Float},
		{Name: "c_mktsegment", Type: relal.Str},
		{Name: "c_comment", Type: relal.Str},
	}, relal.IntsV(custkey), relal.StrsV(name), relal.StrsV(address),
		relal.IntsV(nationkey), relal.StrsV(phones), relal.FloatsV(acctbal),
		relal.StrsV(mktsegment), relal.StrsV(comments))
}

func genPart(cfg GenConfig, rng *rand.Rand) *relal.Table {
	n := Rows("part", cfg.SF)
	partkey := make([]int64, 0, n)
	name := make([]string, 0, n)
	mfgr := make([]string, 0, n)
	brand := make([]string, 0, n)
	ptype := make([]string, 0, n)
	size := make([]int64, 0, n)
	container := make([]string, 0, n)
	retailprice := make([]float64, 0, n)
	comments := make([]string, 0, n)
	for i := int64(1); i <= n; i++ {
		m := rng.Intn(5) + 1
		b := rng.Intn(5) + 1
		partkey = append(partkey, i)
		name = append(name, comment(rng, 5)) // five color words, as the spec's p_name
		mfgr = append(mfgr, fmt.Sprintf("Manufacturer#%d", m))
		brand = append(brand, fmt.Sprintf("Brand#%d%d", m, b))
		ptype = append(ptype, typeSyl1[rng.Intn(6)]+" "+typeSyl2[rng.Intn(5)]+" "+typeSyl3[rng.Intn(5)])
		size = append(size, int64(rng.Intn(50)+1))
		container = append(container, containers1[rng.Intn(5)]+" "+containers2[rng.Intn(8)])
		retailprice = append(retailprice, 90000.0/100+float64((i/10)%20001)/100+100*float64(i%1000)/100)
		comments = append(comments, comment(rng, 3))
	}
	return relal.NewTable("part", relal.Schema{
		{Name: "p_partkey", Type: relal.Int},
		{Name: "p_name", Type: relal.Str},
		{Name: "p_mfgr", Type: relal.Str},
		{Name: "p_brand", Type: relal.Str},
		{Name: "p_type", Type: relal.Str},
		{Name: "p_size", Type: relal.Int},
		{Name: "p_container", Type: relal.Str},
		{Name: "p_retailprice", Type: relal.Float},
		{Name: "p_comment", Type: relal.Str},
	}, relal.IntsV(partkey), relal.StrsV(name), relal.StrsV(mfgr),
		relal.StrsV(brand), relal.StrsV(ptype), relal.IntsV(size),
		relal.StrsV(container), relal.FloatsV(retailprice), relal.StrsV(comments))
}

func genPartSupp(cfg GenConfig, rng *rand.Rand) *relal.Table {
	nPart := Rows("part", cfg.SF)
	nSupp := Rows("supplier", cfg.SF)
	if nSupp < 1 {
		nSupp = 1
	}
	partkey := make([]int64, 0, nPart*4)
	suppkey := make([]int64, 0, nPart*4)
	availqty := make([]int64, 0, nPart*4)
	supplycost := make([]float64, 0, nPart*4)
	comments := make([]string, 0, nPart*4)
	for p := int64(1); p <= nPart; p++ {
		for j := int64(0); j < 4; j++ {
			// Spec formula spreads the four suppliers of a part.
			s := (p+j*(nSupp/4+(p-1)/nSupp))%nSupp + 1
			partkey = append(partkey, p)
			suppkey = append(suppkey, s)
			availqty = append(availqty, int64(rng.Intn(9999)+1))
			supplycost = append(supplycost, float64(rng.Intn(100000))/100)
			comments = append(comments, comment(rng, 4))
		}
	}
	return relal.NewTable("partsupp", relal.Schema{
		{Name: "ps_partkey", Type: relal.Int},
		{Name: "ps_suppkey", Type: relal.Int},
		{Name: "ps_availqty", Type: relal.Int},
		{Name: "ps_supplycost", Type: relal.Float},
		{Name: "ps_comment", Type: relal.Str},
	}, relal.IntsV(partkey), relal.IntsV(suppkey), relal.IntsV(availqty),
		relal.FloatsV(supplycost), relal.StrsV(comments))
}

// OrderKey maps a dense order index (0-based) to the sparse o_orderkey:
// only the first 8 of every 32 keys are used. This sparsity is what
// leaves 384 of Hive's 512 lineitem buckets empty in the paper's Table 4
// analysis.
func OrderKey(i int64) int64 {
	group, offset := i/8, i%8
	return group*32 + offset + 1
}

// ordersCols / lineitemCols accumulate the two tables' column slices
// during the interleaved orders+lineitem generation pass.
type ordersCols struct {
	orderkey      []int64
	custkey       []int64
	orderstatus   []string
	totalprice    []float64
	orderdate     []string
	orderpriority []string
	clerk         []string
	shippriority  []int64
	comment       []string
}

type lineitemCols struct {
	orderkey      []int64
	partkey       []int64
	suppkey       []int64
	linenumber    []int64
	quantity      []float64
	extendedprice []float64
	discount      []float64
	tax           []float64
	returnflag    []string
	linestatus    []string
	shipdate      []string
	commitdate    []string
	receiptdate   []string
	shipinstruct  []string
	shipmode      []string
	comment       []string
}

func genOrdersLineitem(cfg GenConfig, rng *rand.Rand) (*relal.Table, *relal.Table) {
	nOrders := Rows("orders", cfg.SF)
	nCust := Rows("customer", cfg.SF)
	nPart := Rows("part", cfg.SF)
	nSupp := Rows("supplier", cfg.SF)
	if nCust < 1 {
		nCust = 1
	}
	if nPart < 1 {
		nPart = 1
	}
	if nSupp < 1 {
		nSupp = 1
	}
	var oc ordersCols
	var lc lineitemCols
	for i := int64(0); i < nOrders; i++ {
		okey := OrderKey(i)
		// mk_order uses RANDOM for custkey (and for lineitem partkey);
		// this is where the paper's overflow bug lives.
		ckey := cfg.key(rng, 1, nCust)
		if ckey < 1 || ckey > nCust {
			// Bug mode at huge SF: dbgen emitted the bad key. We keep
			// it, mirroring the broken generator.
			ckey = ckey % nCust
			if ckey < 1 {
				ckey = -ckey%nCust + 1
			}
		}
		// Spec: customers whose key is divisible by 3 never place
		// orders (one third of customers have no orders), which is
		// what gives Q13 its zero bucket and Q22 its answer set.
		if ckey%3 == 0 {
			ckey++
			if ckey > nCust {
				ckey = 1
			}
		}
		odateOff := rng.Intn(orderDateDays)
		odate := dateString(odateOff)
		nl := rng.Intn(7) + 1
		var total float64
		for ln := 0; ln < nl; ln++ {
			pkey := cfg.key(rng, 1, nPart)
			if pkey < 1 || pkey > nPart {
				pkey = -pkey%nPart + 1
			}
			skey := (pkey+int64(ln)*(nSupp/4+(pkey-1)/nSupp))%nSupp + 1
			qty := float64(rng.Intn(50) + 1)
			price := qty * (900 + float64(pkey%1000))
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			shipOff := odateOff + rng.Intn(121) + 1
			commitOff := odateOff + rng.Intn(91) + 30
			receiptOff := shipOff + rng.Intn(30) + 1
			rf := "N"
			// Returned lineitems only exist for ship dates before the
			// current date minus ~17 months; approximate with a coin
			// flip on older dates.
			if shipOff < orderDateDays-500 && rng.Intn(2) == 0 {
				rf = []string{"R", "A"}[rng.Intn(2)]
			}
			ls := "O"
			if shipOff < orderDateDays-365 {
				ls = "F"
			}
			total += price * (1 + tax) * (1 - disc)
			lc.orderkey = append(lc.orderkey, okey)
			lc.partkey = append(lc.partkey, pkey)
			lc.suppkey = append(lc.suppkey, skey)
			lc.linenumber = append(lc.linenumber, int64(ln+1))
			lc.quantity = append(lc.quantity, qty)
			lc.extendedprice = append(lc.extendedprice, price)
			lc.discount = append(lc.discount, disc)
			lc.tax = append(lc.tax, tax)
			lc.returnflag = append(lc.returnflag, rf)
			lc.linestatus = append(lc.linestatus, ls)
			lc.shipdate = append(lc.shipdate, dateString(shipOff))
			lc.commitdate = append(lc.commitdate, dateString(commitOff))
			lc.receiptdate = append(lc.receiptdate, dateString(receiptOff))
			lc.shipinstruct = append(lc.shipinstruct, shipInstructs[rng.Intn(4)])
			lc.shipmode = append(lc.shipmode, shipModes[rng.Intn(7)])
			lc.comment = append(lc.comment, comment(rng, 4))
		}
		status := "O"
		if rng.Intn(2) == 0 {
			status = []string{"F", "P"}[rng.Intn(2)]
		}
		oc.orderkey = append(oc.orderkey, okey)
		oc.custkey = append(oc.custkey, ckey)
		oc.orderstatus = append(oc.orderstatus, status)
		oc.totalprice = append(oc.totalprice, math.Round(total*100)/100)
		oc.orderdate = append(oc.orderdate, odate)
		oc.orderpriority = append(oc.orderpriority, priorities[rng.Intn(5)])
		oc.clerk = append(oc.clerk, fmt.Sprintf("Clerk#%09d", rng.Intn(1000)+1))
		oc.shippriority = append(oc.shippriority, 0)
		oc.comment = append(oc.comment, comment(rng, 5))
	}
	orders := relal.NewTable("orders", relal.Schema{
		{Name: "o_orderkey", Type: relal.Int},
		{Name: "o_custkey", Type: relal.Int},
		{Name: "o_orderstatus", Type: relal.Str},
		{Name: "o_totalprice", Type: relal.Float},
		{Name: "o_orderdate", Type: relal.Str},
		{Name: "o_orderpriority", Type: relal.Str},
		{Name: "o_clerk", Type: relal.Str},
		{Name: "o_shippriority", Type: relal.Int},
		{Name: "o_comment", Type: relal.Str},
	}, relal.IntsV(oc.orderkey), relal.IntsV(oc.custkey), relal.StrsV(oc.orderstatus),
		relal.FloatsV(oc.totalprice), relal.StrsV(oc.orderdate), relal.StrsV(oc.orderpriority),
		relal.StrsV(oc.clerk), relal.IntsV(oc.shippriority), relal.StrsV(oc.comment))
	lineitem := relal.NewTable("lineitem", relal.Schema{
		{Name: "l_orderkey", Type: relal.Int},
		{Name: "l_partkey", Type: relal.Int},
		{Name: "l_suppkey", Type: relal.Int},
		{Name: "l_linenumber", Type: relal.Int},
		{Name: "l_quantity", Type: relal.Float},
		{Name: "l_extendedprice", Type: relal.Float},
		{Name: "l_discount", Type: relal.Float},
		{Name: "l_tax", Type: relal.Float},
		{Name: "l_returnflag", Type: relal.Str},
		{Name: "l_linestatus", Type: relal.Str},
		{Name: "l_shipdate", Type: relal.Str},
		{Name: "l_commitdate", Type: relal.Str},
		{Name: "l_receiptdate", Type: relal.Str},
		{Name: "l_shipinstruct", Type: relal.Str},
		{Name: "l_shipmode", Type: relal.Str},
		{Name: "l_comment", Type: relal.Str},
	}, relal.IntsV(lc.orderkey), relal.IntsV(lc.partkey), relal.IntsV(lc.suppkey),
		relal.IntsV(lc.linenumber), relal.FloatsV(lc.quantity), relal.FloatsV(lc.extendedprice),
		relal.FloatsV(lc.discount), relal.FloatsV(lc.tax), relal.StrsV(lc.returnflag),
		relal.StrsV(lc.linestatus), relal.StrsV(lc.shipdate), relal.StrsV(lc.commitdate),
		relal.StrsV(lc.receiptdate), relal.StrsV(lc.shipinstruct), relal.StrsV(lc.shipmode),
		relal.StrsV(lc.comment))
	return orders, lineitem
}

// TextBytes estimates the flat-text size in bytes of the named table at
// scale factor sf, used for load-time and scan costing at paper scales.
// Per-row text widths follow the spec's average row sizes.
func TextBytes(table string, sf float64) int64 {
	var width int64
	switch table {
	case "region":
		width = 80
	case "nation":
		width = 90
	case "supplier":
		width = 140
	case "customer":
		width = 160
	case "part":
		width = 120
	case "partsupp":
		width = 145
	case "orders":
		width = 110
	case "lineitem":
		width = 128
	}
	return Rows(table, sf) * width
}
