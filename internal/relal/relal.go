// Package relal provides the shared relational-algebra building blocks
// used by the TPC-H side of the reproduction: typed columnar tables,
// hash joins, grouped aggregation, sorting, and filtering, all
// instrumented with a step log.
//
// Storage is columnar, mirroring the paper's RCFile insight: a Table
// holds one typed vector per column ([]int64, []float64, or []string)
// plus an optional selection vector. Filters, semi/anti joins, sorts,
// and limits produce zero-copy views (shared column vectors + a
// selection/permutation of physical row indices); a join materializes
// new dense vectors with the typed gather (join.go), an aggregation
// gathers its group columns and folds the rest (agg.go). No cell is ever
// boxed into an interface{} on the hot path.
//
// Each TPC-H query is written once as a small program over these
// operators. Executing it yields (a) the correct answer (validated
// against the reference), and (b) a StepLog recording the shape of the
// work: which tables were scanned, join input/output cardinalities,
// aggregation sizes. The Hive and PDW engines replay the log with their
// own physical strategies and cost models, which is how one query
// implementation produces two paper-faithful timings.
package relal

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Type is a column type.
type Type int

// Column types. Dates are ISO-8601 strings so lexicographic comparison
// is date comparison.
const (
	Int Type = iota
	Float
	Str
)

// Column describes one column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered column list.
type Schema []Column

// Col returns the index of the named column, or panics (schema errors
// are programming bugs in the hand-written queries).
func (s Schema) Col(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("relal: no column %q in schema %v", name, s.Names()))
}

// Names returns the column names.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Vector is one typed column: exactly the slice matching Kind is
// populated. A Str vector may instead be dictionary-encoded (dict.go):
// Dict holds per-cell uint32 codes into DictVals, a shared sorted
// dictionary, so code order equals value order and kernels can compare
// codes instead of strings. DictVals non-nil marks the dict variant.
// Every slice holds one entry per row: run-length encoding is a storage
// encoding (rcfile), expanded where a column is assembled from chunks.
type Vector struct {
	Kind   Type
	Ints   []int64
	Floats []float64
	Strs   []string

	Dict     []uint32
	DictVals []string
}

// NewVector returns an empty vector of the given type with capacity for
// n cells.
func NewVector(kind Type, n int) *Vector {
	v := &Vector{Kind: kind}
	switch kind {
	case Int:
		v.Ints = make([]int64, 0, n)
	case Float:
		v.Floats = make([]float64, 0, n)
	case Str:
		v.Strs = make([]string, 0, n)
	}
	return v
}

// IntsV wraps an int64 slice as a column vector (no copy).
func IntsV(xs []int64) *Vector { return &Vector{Kind: Int, Ints: xs} }

// FloatsV wraps a float64 slice as a column vector (no copy).
func FloatsV(xs []float64) *Vector { return &Vector{Kind: Float, Floats: xs} }

// StrsV wraps a string slice as a column vector (no copy).
func StrsV(xs []string) *Vector { return &Vector{Kind: Str, Strs: xs} }

// Len returns the number of cells.
func (v *Vector) Len() int {
	switch v.Kind {
	case Int:
		return len(v.Ints)
	case Float:
		return len(v.Floats)
	}
	if v.DictVals != nil {
		return len(v.Dict)
	}
	return len(v.Strs)
}

// Table is a schema plus column vectors. Base names the base table
// whose partitioning the rows still align with ("" for post-join/agg
// intermediates); filters and projections preserve it.
//
// sel, when non-nil, is a selection/permutation vector of physical row
// indices: logical row i lives at physical position sel[i] in every
// column. Filters, sorts, and limits return such views instead of
// copying; Compacted materializes a view into dense vectors.
//
// A table whose vectors are fully built (every base table, every
// operator output) is immutable except for two caches — the shared
// aliasing flag and the memoized AvgRowBytes — which are atomic so
// concurrent query streams can execute over one shared table without
// synchronization.
type Table struct {
	Name   string
	Schema Schema
	Cols   []*Vector
	Base   string

	sel      []int32
	shared   atomic.Bool  // Cols aliased by another table (zero-copy views)
	avgBytes atomic.Int64 // cached exact AvgRowBytes; 0 = not yet computed

	// scanOnce/scanCached memoize the per-row-group zone maps and
	// encoded column sizes TableSource reports (computed once; base
	// tables are immutable after generation).
	scanOnce   sync.Once
	scanCached *tableScanInfo
}

// NewTable builds a table. With no cols, empty vectors are allocated
// per the schema; otherwise cols must match the schema's types and all
// have equal lengths. Supplied vectors are adopted, not copied, and may
// be aliased by another table (e.g. a renamed-column alias of a base
// table), so the result is marked shared: AppendRow privatizes the
// vectors before mutating them.
func NewTable(name string, schema Schema, cols ...*Vector) *Table {
	t := &Table{Name: name, Schema: schema}
	if len(cols) == 0 {
		t.Cols = make([]*Vector, len(schema))
		for i, c := range schema {
			t.Cols[i] = NewVector(c.Type, 0)
		}
		return t
	}
	t.shared.Store(true)
	if len(cols) != len(schema) {
		panic(fmt.Sprintf("relal: %d vectors for %d columns", len(cols), len(schema)))
	}
	n := cols[0].Len()
	for i, v := range cols {
		if v.Kind != schema[i].Type {
			panic(fmt.Sprintf("relal: column %q type mismatch", schema[i].Name))
		}
		if v.Len() != n {
			panic(fmt.Sprintf("relal: column %q has %d cells, want %d", schema[i].Name, v.Len(), n))
		}
	}
	t.Cols = cols
	return t
}

// view wraps t's columns under a new selection vector. Both the view
// and the source are marked shared: their vectors are now aliased, so a
// later AppendRow to either must privatize first. The source flag is
// only written when not already set, so viewing an immutable shared
// table (a base table under concurrent query streams) never mutates it.
func view(t *Table, name string, sel []int32) *Table {
	markShared(t)
	out := &Table{Name: name, Schema: t.Schema, Cols: t.Cols, sel: sel}
	out.shared.Store(true)
	return out
}

// markShared flags t's vectors as aliased. The load-before-store keeps
// the flag write off already-shared tables: base tables are born shared,
// so concurrent streams only ever read it.
func markShared(t *Table) {
	if !t.shared.Load() {
		t.shared.Store(true)
	}
}

// phys maps a logical row index to its physical position.
func (t *Table) phys(i int) int32 {
	if t.sel != nil {
		return t.sel[i]
	}
	return int32(i)
}

// NumRows returns the logical row count.
func (t *Table) NumRows() int {
	if t.sel != nil {
		return len(t.sel)
	}
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Compacted returns a dense copy of t if it is a view (materializing
// the selection vector), or t itself if it is already dense.
func (t *Table) Compacted() *Table {
	if t.sel == nil {
		return t
	}
	cols := make([]*Vector, len(t.Cols))
	for i, v := range t.Cols {
		cols[i] = v.gather(t.sel, 1)
	}
	return &Table{Name: t.Name, Schema: t.Schema, Cols: cols, Base: t.Base}
}

// AvgRowBytes returns the exact average encoded row width in bytes
// (8 per numeric column, string length + 1 for raw strings, the packed
// code width plus the amortized dictionary for dict-encoded strings),
// used by the engines to convert cardinalities into I/O and network
// bytes. Dictionary encoding therefore shows up in the cost models the
// same way it shows up on disk: a dict column is a few bytes per row,
// not the string's.
func (t *Table) AvgRowBytes() int {
	n := t.NumRows()
	if n == 0 {
		return rowBytesFromSchema(t.Schema)
	}
	if b := t.avgBytes.Load(); b > 0 {
		return int(b)
	}
	total := 0
	for ci, c := range t.Schema {
		col := t.Cols[ci]
		if c.Type != Str {
			total += 8 * n
			continue
		}
		if col.DictVals != nil {
			total += DictCodeWidth(len(col.DictVals)) * n
			for _, s := range col.DictVals {
				total += len(s) + 1
			}
			continue
		}
		strs := col.Strs
		if t.sel == nil {
			for _, s := range strs {
				total += len(s) + 1
			}
		} else {
			for _, p := range t.sel {
				total += len(strs[p]) + 1
			}
		}
	}
	// Concurrent computations store the same deterministic value, so a
	// racing Store is harmless.
	t.avgBytes.Store(int64(total / n))
	return total / n
}

func rowBytesFromSchema(s Schema) int {
	b := 0
	for _, c := range s {
		if c.Type == Str {
			b += 16
		} else {
			b += 8
		}
	}
	return b
}

// IntVec is a read accessor for an Int column, selection-aware: Get
// takes logical row indices.
type IntVec struct {
	data []int64
	sel  []int32
}

// Get returns the cell at logical row i.
func (v IntVec) Get(i int) int64 {
	if v.sel != nil {
		i = int(v.sel[i])
	}
	return v.data[i]
}

// Len returns the logical row count.
func (v IntVec) Len() int {
	if v.sel != nil {
		return len(v.sel)
	}
	return len(v.data)
}

// FloatVec is a read accessor for a Float column.
type FloatVec struct {
	data []float64
	sel  []int32
}

// Get returns the cell at logical row i.
func (v FloatVec) Get(i int) float64 {
	if v.sel != nil {
		i = int(v.sel[i])
	}
	return v.data[i]
}

// Len returns the logical row count.
func (v FloatVec) Len() int {
	if v.sel != nil {
		return len(v.sel)
	}
	return len(v.data)
}

// StrVec is a read accessor for a Str column. For a dict-encoded
// column, dict/vals are set instead of data and Get decodes through the
// dictionary; the predicate factories in pred.go compare codes and skip
// the decode entirely.
type StrVec struct {
	data []string
	dict []uint32
	vals []string
	sel  []int32
}

// Get returns the cell at logical row i.
func (v StrVec) Get(i int) string {
	if v.sel != nil {
		i = int(v.sel[i])
	}
	if v.dict != nil {
		return v.vals[v.dict[i]]
	}
	return v.data[i]
}

// Len returns the logical row count.
func (v StrVec) Len() int {
	if v.sel != nil {
		return len(v.sel)
	}
	if v.dict != nil {
		return len(v.dict)
	}
	return len(v.data)
}

// IntCol returns a typed accessor for the named Int column (panics on
// missing column or type mismatch — schema errors are programming bugs
// in the hand-written queries).
func (t *Table) IntCol(name string) IntVec {
	c := t.Schema.Col(name)
	if t.Schema[c].Type != Int {
		panic(fmt.Sprintf("relal: column %q is not Int", name))
	}
	return IntVec{data: t.Cols[c].Ints, sel: t.sel}
}

// FloatCol returns a typed accessor for the named Float column.
func (t *Table) FloatCol(name string) FloatVec {
	c := t.Schema.Col(name)
	if t.Schema[c].Type != Float {
		panic(fmt.Sprintf("relal: column %q is not Float", name))
	}
	return FloatVec{data: t.Cols[c].Floats, sel: t.sel}
}

// StrCol returns a typed accessor for the named Str column.
func (t *Table) StrCol(name string) StrVec {
	c := t.Schema.Col(name)
	if t.Schema[c].Type != Str {
		panic(fmt.Sprintf("relal: column %q is not Str", name))
	}
	col := t.Cols[c]
	if col.DictVals != nil {
		return StrVec{dict: col.Dict, vals: col.DictVals, sel: t.sel}
	}
	return StrVec{data: col.Strs, sel: t.sel}
}

// Row is one boxed tuple; elements are int64, float64, or string per
// the schema. It survives only as the compatibility interchange format
// (RowsOf/AppendRow) — the execution core never materializes rows.
type Row []interface{}

// RowsOf materializes t as boxed rows (compatibility shim for tests and
// row-oriented consumers such as the text dumper).
func RowsOf(t *Table) []Row {
	n := t.NumRows()
	rows := make([]Row, n)
	for i := 0; i < n; i++ {
		p := t.phys(i)
		r := make(Row, len(t.Cols))
		for c, v := range t.Cols {
			switch v.Kind {
			case Int:
				r[c] = v.Ints[p]
			case Float:
				r[c] = v.Floats[p]
			default:
				r[c] = v.StrAt(p)
			}
		}
		rows[i] = r
	}
	return rows
}

// AppendRow appends one boxed row to t (compatibility shim). Cell types
// must match the schema exactly (int64/float64/string) or it panics. If
// t is a view, or its vectors are aliased by a zero-copy sibling
// (Project/Limit output), t is compacted onto private vectors first so
// the append can never desynchronize another table.
func AppendRow(t *Table, r Row) {
	if t.sel != nil || t.shared.Load() {
		sel := t.sel
		if sel == nil {
			sel = make([]int32, t.NumRows())
			for i := range sel {
				sel[i] = int32(i)
			}
		}
		cols := make([]*Vector, len(t.Cols))
		for i, v := range t.Cols {
			cols[i] = v.gather(sel, 1)
		}
		t.Cols, t.sel = cols, nil
		t.shared.Store(false)
	}
	if len(r) != len(t.Cols) {
		panic(fmt.Sprintf("relal: row has %d cells, schema has %d", len(r), len(t.Cols)))
	}
	for c, cell := range r {
		col := t.Cols[c]
		switch col.Kind {
		case Int:
			x, ok := cell.(int64)
			if !ok {
				panic(fmt.Sprintf("relal: column %q expects int64, got %T", t.Schema[c].Name, cell))
			}
			col.Ints = append(col.Ints, x)
		case Float:
			x, ok := cell.(float64)
			if !ok {
				panic(fmt.Sprintf("relal: column %q expects float64, got %T", t.Schema[c].Name, cell))
			}
			col.Floats = append(col.Floats, x)
		default:
			x, ok := cell.(string)
			if !ok {
				panic(fmt.Sprintf("relal: column %q expects string, got %T", t.Schema[c].Name, cell))
			}
			// An arbitrary appended string may not be in the dictionary;
			// fall back to the raw representation (the vector is private
			// here — views and aliased tables were compacted above).
			col.decodeToRaw()
			col.Strs = append(col.Strs, x)
		}
	}
	t.avgBytes.Store(0)
}

// StepKind classifies a logged execution step.
type StepKind int

// Step kinds.
const (
	StepScan StepKind = iota
	StepFilter
	StepJoin
	StepAgg
	StepSort
	StepLimit
)

func (k StepKind) String() string {
	switch k {
	case StepScan:
		return "scan"
	case StepFilter:
		return "filter"
	case StepJoin:
		return "join"
	case StepAgg:
		return "agg"
	case StepSort:
		return "sort"
	case StepLimit:
		return "limit"
	}
	return "?"
}

// Step records one operator execution: cardinalities and byte widths
// that the engines' cost models consume.
type Step struct {
	Kind StepKind
	// Table is the base-table name for scans; for joins, the two input
	// names joined with "⋈".
	Table string
	// LeftRows/RightRows are input cardinalities (RightRows 0 except
	// joins).
	LeftRows, RightRows int
	// LeftBytes/RightBytes are input widths in bytes per row.
	LeftWidth, RightWidth int
	// OutRows/OutWidth describe the output.
	OutRows, OutWidth int
	// JoinKey names the join column (joins only); engines use it to
	// check bucketing/partitioning alignment.
	JoinKey string
	// LeftBase/RightBase name the base table an input derives from, ""
	// for intermediates. Partitioning alignment survives filters and
	// projections but not joins or aggregations.
	LeftBase, RightBase string
	// ScanBytesRead/ScanBytesSkipped are set on StepScan steps produced
	// by a pushdown-aware Source: encoded bytes the scan decompressed vs
	// bytes it could skip (unrequested columns plus row groups pruned by
	// zone maps). Cost models use the skipped fraction to discount the
	// per-byte decompression CPU charge.
	ScanBytesRead, ScanBytesSkipped int64
	// ScanGroupsRead/ScanGroupsSkipped count the row groups decoded vs
	// zone-pruned by the scan.
	ScanGroupsRead, ScanGroupsSkipped int
	// ScanBytesFromCache is the portion of ScanBytesRead served from a
	// shared decompressed-chunk cache (subset of ScanBytesRead, so the
	// cost models' skipped fractions are cache-invariant), with the
	// corresponding per-chunk lookup counters.
	ScanBytesFromCache             int64
	ScanCacheHits, ScanCacheMisses int
	// ScanCorruptChunks counts checksum-failed chunks encountered (and
	// degraded around) while serving this scan.
	ScanCorruptChunks int
}

// StepLog accumulates steps in execution order.
type StepLog struct {
	Steps []Step
	// SortNanos is host wall time spent inside the Sort/TopK kernels
	// (permutation + top-k selection, excluding logging), letting
	// harnesses report each query's sort share without touching the
	// cost-model-facing Step fields.
	SortNanos int64
}

// Add appends a step.
func (l *StepLog) Add(s Step) { l.Steps = append(l.Steps, s) }

// Exec is the execution context threading the log through operators.
type Exec struct {
	Log StepLog
	// Parallelism is this query's admission cap on the shared morsel
	// scheduler (sched.go): 0 = the pool size (PoolSize), 1 = serial,
	// n > 1 = at most n of this query's morsels in flight at once. The
	// pool itself is process-wide and sized to GOMAXPROCS, so N
	// concurrent queries never oversubscribe the cores. Kernels are
	// written so the result — including floating-point aggregate bits
	// and group emission order — is identical for every setting.
	Parallelism int
}

// SetBase marks t's rows as originating from (and still partitioned
// like) the named base table.
func SetBase(t *Table, base string) { t.Base = base }

// BaseOf returns the base-table annotation for t ("" if none).
func BaseOf(t *Table) string { return t.Base }

// Filter returns the rows of t satisfying pred as a zero-copy view:
// pred is evaluated per logical row index into a new selection vector;
// no cells move. The result keeps t's base annotation (filtering
// preserves partitioning).
func (e *Exec) Filter(t *Table, pred func(i int) bool) *Table {
	sel := selectRows(t, MorselRows, e.workers(), pred)
	out := view(t, t.Name+"_f", sel)
	e.Log.Add(Step{
		Kind: StepFilter, Table: t.Name,
		LeftRows: t.NumRows(), LeftWidth: t.AvgRowBytes(),
		OutRows: out.NumRows(), OutWidth: out.AvgRowBytes(),
		LeftBase: BaseOf(t),
	})
	SetBase(out, BaseOf(t))
	return out
}

// Project returns a table with the named columns only, preserving the
// base annotation. Column vectors are shared (zero-copy). Projection is
// logged as part of downstream steps, not separately (it is free in
// both engines' models).
func (e *Exec) Project(t *Table, cols ...string) *Table {
	sch := make(Schema, len(cols))
	vecs := make([]*Vector, len(cols))
	for i, c := range cols {
		j := t.Schema.Col(c)
		sch[i] = t.Schema[j]
		vecs[i] = t.Cols[j]
	}
	markShared(t)
	out := &Table{Name: t.Name + "_p", Schema: sch, Cols: vecs, sel: t.sel}
	out.shared.Store(true)
	SetBase(out, BaseOf(t))
	return out
}

// keyAt reads the key at logical row i of a selection-aware key column.
func keyAt[K comparable](data []K, sel []int32, i int) K {
	if sel != nil {
		i = int(sel[i])
	}
	return data[i]
}

// Limit truncates t to n rows as a zero-copy view (the selection vector
// is truncated, or synthesized for a dense input — the input table is
// never written, so concurrent streams can limit one shared table). The
// step is logged with the truncated view's own width; both cost models
// fold limits into the surrounding job, so replayed costs are unchanged.
func (e *Exec) Limit(t *Table, n int) *Table {
	markShared(t)
	out := &Table{Name: t.Name, Schema: t.Schema, Cols: t.Cols, sel: t.sel}
	out.shared.Store(true)
	if t.NumRows() > n {
		if t.sel != nil {
			out.sel = t.sel[:n]
		} else {
			sel := make([]int32, n)
			for i := range sel {
				sel[i] = int32(i)
			}
			out.sel = sel
		}
	}
	e.Log.Add(Step{
		Kind: StepLimit, Table: t.Name,
		LeftRows: t.NumRows(), LeftWidth: t.AvgRowBytes(),
		OutRows: out.NumRows(), OutWidth: out.AvgRowBytes(),
		LeftBase: BaseOf(t),
	})
	SetBase(out, BaseOf(t))
	return out
}

// extendSlice fills a length-n slice with fn(i), morsel by morsel (each
// index writes its own slot, so the result is identical at any
// parallelism).
func extendSlice[T any](n, workers int, fn func(i int) T) []T {
	xs := make([]T, n)
	parallelMorsels(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] = fn(i)
		}
	})
	return xs
}

// ExtendInt appends a computed Int column to t (no step logged;
// expression evaluation is costed with the surrounding operator). fn
// receives logical row indices of t and runs across the Exec's worker
// pool; views are compacted so the output is dense.
func (e *Exec) ExtendInt(t *Table, name string, fn func(i int) int64) *Table {
	return extendWith(t, name, IntsV(extendSlice(t.NumRows(), e.workers(), fn)))
}

// ExtendFloat is the morsel-parallel projection kernel for computed
// Float columns.
func (e *Exec) ExtendFloat(t *Table, name string, fn func(i int) float64) *Table {
	return extendWith(t, name, FloatsV(extendSlice(t.NumRows(), e.workers(), fn)))
}

// ExtendStr is the morsel-parallel projection kernel for computed Str
// columns.
func (e *Exec) ExtendStr(t *Table, name string, fn func(i int) string) *Table {
	return extendWith(t, name, StrsV(extendSlice(t.NumRows(), e.workers(), fn)))
}

func extendWith(t *Table, name string, col *Vector) *Table {
	d := t.Compacted()
	if d == t {
		// Dense input: the output aliases t's vectors directly.
		markShared(t)
	}
	cols := make([]*Vector, 0, len(d.Cols)+1)
	cols = append(cols, d.Cols...)
	cols = append(cols, col)
	sch := make(Schema, 0, len(t.Schema)+1)
	sch = append(sch, t.Schema...)
	sch = append(sch, Column{Name: name, Type: col.Kind})
	// The first len(d.Cols) vectors alias the (compacted) input.
	out := &Table{Name: t.Name, Schema: sch, Cols: cols}
	out.shared.Store(true)
	SetBase(out, BaseOf(t))
	return out
}
