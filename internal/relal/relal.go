// Package relal provides the shared relational-algebra building blocks
// used by the TPC-H side of the reproduction: typed columnar tables,
// hash joins, grouped aggregation, sorting, and filtering, all
// instrumented with a step log.
//
// Storage is columnar, mirroring the paper's RCFile insight: a Table
// holds one typed vector per column ([]int64, []float64, or []string),
// each read through an optional selection vector of its own. Filters,
// semi/anti joins, joins, sorts, limits and extensions all return views:
// the input's own vectors under selections composed with the operator's
// row indices, one int32 pass per distinct input selection (join.go).
// Cells move in two places only: an aggregation gathers its group
// columns and folds the rest (agg.go), and Compacted materializes a
// view at an output boundary. No cell is ever boxed into an interface{}
// on the hot path.
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
// Cols[c] is column c's backing vector, not its rows: in a view, logical
// row i of column c lives at physical position sel_c[i], where sel_c is
// the column's own selection vector (nil for a dense column, whose
// physical and logical rows agree). Read a table through the typed
// accessors (IntCol/FloatCol/StrCol), RowsOf, or Compacted, which
// materializes dense vectors. Columns that came from one operator input
// share one selection: sels holds the distinct ones and colSel[c]
// indexes column c's (-1 for a dense column; colSel nil when every
// column is dense).
//
// A table is immutable once an operator or a Source returns it: no
// operation writes a built table's vectors or selections, so views,
// projections and extensions alias them freely, and concurrent query
// streams execute over one shared table without synchronization. The
// one cache, the memoized AvgRowBytes, is atomic. Immutability is also
// what lets a StepLog hold a table and measure its width later: the
// width computed on demand is the width it had when it was logged.
// Updates reach the analytical copy through the delta log, never in
// place.
type Table struct {
	Name   string
	Schema Schema
	Cols   []*Vector
	Base   string

	sels     [][]int32
	colSel   []int
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
// table).
func NewTable(name string, schema Schema, cols ...*Vector) *Table {
	t := &Table{Name: name, Schema: schema}
	if len(cols) == 0 {
		t.Cols = make([]*Vector, len(schema))
		for i, c := range schema {
			t.Cols[i] = NewVector(c.Type, 0)
		}
		return t
	}
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

// sel returns column c's selection vector, nil when the column is dense.
func (t *Table) sel(c int) []int32 {
	if t.colSel == nil || t.colSel[c] < 0 {
		return nil
	}
	return t.sels[t.colSel[c]]
}

// composeSels appends to sels the selections that read t's columns at
// t's logical rows idx — one int32 pass per distinct selection of t, and
// idx itself for every dense column — and returns the grown list with
// each column's index into it. No cell moves.
func (t *Table) composeSels(sels [][]int32, idx []int32) ([][]int32, []int) {
	base := len(sels)
	for _, s := range t.sels {
		sels = append(sels, gatherSlice(s, idx))
	}
	colSel := make([]int, len(t.Cols))
	dense := -1
	for c := range colSel {
		switch {
		case t.colSel != nil && t.colSel[c] >= 0:
			colSel[c] = base + t.colSel[c]
		case dense >= 0:
			colSel[c] = dense
		default:
			dense = len(sels)
			sels = append(sels, idx)
			colSel[c] = dense
		}
	}
	return sels, colSel
}

// view returns t's columns at its logical rows idx, in order, under a new
// name; the rows keep t's base annotation.
func view(t *Table, name string, idx []int32) *Table {
	out := &Table{Name: name, Schema: t.Schema, Cols: t.Cols, Base: t.Base}
	out.sels, out.colSel = t.composeSels(nil, idx)
	return out
}

// NumRows returns the logical row count.
func (t *Table) NumRows() int {
	if len(t.sels) > 0 {
		return len(t.sels[0])
	}
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Compacted returns a dense copy of t if it is a view (materializing
// every column's selection vector), or t itself if it is already dense.
// It is the output boundary: the one place besides Aggregate where a
// view's cells move.
func (t *Table) Compacted() *Table {
	if len(t.sels) == 0 {
		return t
	}
	cols := make([]*Vector, len(t.Cols))
	for c, v := range t.Cols {
		cols[c] = v
		if s := t.sel(c); s != nil {
			cols[c] = v.gather(s)
		}
	}
	return &Table{Name: t.Name, Schema: t.Schema, Cols: cols, Base: t.Base}
}

// AvgRowBytes returns the exact average encoded row width in bytes
// (8 per numeric column, string length + 1 for raw strings, the packed
// code width plus the amortized dictionary for dict-encoded strings),
// used by the engines to convert cardinalities into I/O and network
// bytes. Dictionary encoding therefore shows up in the cost models the
// same way it shows up on disk: a dict column is a few bytes per row,
// not the string's. A raw-string column is walked through its own
// selection, so a view reports exactly the width of its compacted form.
// No operator calls it: StepLog.Widths does, when a cost model asks.
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
		if sel := t.sel(ci); sel == nil {
			for _, s := range strs {
				total += len(s) + 1
			}
		} else {
			for _, p := range sel {
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

// StrVec is a read accessor for a Str column. For a dict-encoded
// column, dict/vals are set instead of data and Get decodes through the
// dictionary; ZoneCond.On and the predicate factories in dict.go compare
// codes and skip the decode entirely.
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

// IntCol returns a typed accessor for the named Int column (panics on
// missing column or type mismatch — schema errors are programming bugs
// in the hand-written queries).
func (t *Table) IntCol(name string) IntVec {
	c := t.Schema.Col(name)
	if t.Schema[c].Type != Int {
		panic(fmt.Sprintf("relal: column %q is not Int", name))
	}
	return IntVec{data: t.Cols[c].Ints, sel: t.sel(c)}
}

// FloatCol returns a typed accessor for the named Float column.
func (t *Table) FloatCol(name string) FloatVec {
	c := t.Schema.Col(name)
	if t.Schema[c].Type != Float {
		panic(fmt.Sprintf("relal: column %q is not Float", name))
	}
	return FloatVec{data: t.Cols[c].Floats, sel: t.sel(c)}
}

// StrCol returns a typed accessor for the named Str column.
func (t *Table) StrCol(name string) StrVec {
	c := t.Schema.Col(name)
	if t.Schema[c].Type != Str {
		panic(fmt.Sprintf("relal: column %q is not Str", name))
	}
	col := t.Cols[c]
	if col.DictVals != nil {
		return StrVec{dict: col.Dict, vals: col.DictVals, sel: t.sel(c)}
	}
	return StrVec{data: col.Strs, sel: t.sel(c)}
}

// Row is one boxed tuple; elements are int64, float64, or string per
// the schema. It is only an output format (RowsOf) — the execution core
// never materializes rows.
type Row []interface{}

// RowsOf materializes t as boxed rows (for tests and row-oriented
// consumers such as the answer formatter).
func RowsOf(t *Table) []Row {
	rows := make([]Row, t.NumRows())
	for i := range rows {
		r := make(Row, len(t.Cols))
		for c, v := range t.Cols {
			p := rowAt(t.sel(c), i)
			switch v.Kind {
			case Int:
				r[c] = v.Ints[p]
			case Float:
				r[c] = v.Floats[p]
			default:
				r[c] = v.StrAt(int32(p))
			}
		}
		rows[i] = r
	}
	return rows
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
// that the engines' cost models consume. An operator logs the
// cardinalities; the widths stay 0 until StepLog.Widths fills them.
type Step struct {
	Kind StepKind
	// Table is the base-table name for scans; for joins, the two input
	// names joined with "⋈".
	Table string
	// LeftRows/RightRows are input cardinalities (RightRows 0 except
	// joins).
	LeftRows, RightRows int
	// LeftWidth/RightWidth are input widths in bytes per row (filled by
	// StepLog.Widths).
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

// StepLog accumulates steps in execution order. Each step's widths are
// computed only when a reader asks for them through Widths: until then
// the log holds the tables they are measured on, so a query whose log
// nobody costs never walks its strings.
type StepLog struct {
	Steps []Step
	// SortNanos is host wall time spent inside the Sort/TopK kernels
	// (permutation + top-k selection, excluding logging), letting
	// harnesses report each query's sort share without touching the
	// cost-model-facing Step fields.
	SortNanos int64

	pending []stepTables
}

// stepTables are the tables whose widths Steps[i] reports; right is nil
// outside joins.
type stepTables struct {
	i                int
	left, right, out *Table
}

// add appends s, whose widths are left's, right's and out's.
func (l *StepLog) add(s Step, left, right, out *Table) {
	l.pending = append(l.pending, stepTables{len(l.Steps), left, right, out})
	l.Steps = append(l.Steps, s)
}

// Widths fills every step's LeftWidth, RightWidth and OutWidth with the
// exact AvgRowBytes of the tables it read and produced (memoized on each
// table), lets go of those tables, and returns the steps. Calling it
// again returns the same steps.
func (l *StepLog) Widths() []Step {
	for _, p := range l.pending {
		s := &l.Steps[p.i]
		s.LeftWidth, s.OutWidth = p.left.AvgRowBytes(), p.out.AvgRowBytes()
		if p.right != nil {
			s.RightWidth = p.right.AvgRowBytes()
		}
	}
	l.pending = nil
	return l.Steps
}

// Exec is the execution context threading the log through operators.
type Exec struct {
	Log StepLog
	// Parallelism is this query's admission cap on the shared core
	// budget (sched.go): 0 = PoolSize(), 1 = serial, n > 1 = at most n
	// goroutines (the caller and n−1 pool helpers) on one of this
	// query's kernels at once. The helpers are process-wide and sized
	// to GOMAXPROCS, so N concurrent queries never oversubscribe the
	// cores. Kernels are written so the result — including
	// floating-point aggregate bits and group emission order — is
	// identical for every setting.
	Parallelism int
}

// Filter returns the rows of t satisfying pred as a zero-copy view:
// pred is evaluated per logical row index into a new selection vector,
// composed with each distinct selection of t; no cells move. The result
// keeps t's base annotation (filtering preserves partitioning).
func (e *Exec) Filter(t *Table, pred func(i int) bool) *Table {
	out := view(t, t.Name+"_f", selectRows(t.NumRows(), MorselRows, e.workers(), pred))
	e.Log.add(Step{
		Kind: StepFilter, Table: t.Name,
		LeftRows: t.NumRows(), OutRows: out.NumRows(),
		LeftBase: t.Base,
	}, t, nil, out)
	return out
}

// Project returns a table with the named columns only, preserving the
// base annotation. Column vectors and their selections are shared
// (zero-copy). Projection is logged as part of downstream steps, not
// separately (it is free in both engines' models).
func (e *Exec) Project(t *Table, cols ...string) *Table {
	return t.project(t.Name+"_p", cols)
}

// Columns returns t's named columns (nil = every column, t itself) under
// t's own name and base, sharing t's vectors and selections: the scan of
// a Source that projects to the requested columns. The name stays t's
// because the step log records it.
func (t *Table) Columns(cols []string) *Table {
	if len(cols) == 0 {
		return t
	}
	return t.project(t.Name, cols)
}

// project returns t's named columns, zero-copy, under the given name.
func (t *Table) project(name string, cols []string) *Table {
	out := &Table{Name: name, Schema: make(Schema, len(cols)), Cols: make([]*Vector, len(cols)), Base: t.Base, sels: t.sels}
	if t.colSel != nil {
		out.colSel = make([]int, len(cols))
	}
	for i, c := range cols {
		j := t.Schema.Col(c)
		out.Schema[i], out.Cols[i] = t.Schema[j], t.Cols[j]
		if out.colSel != nil {
			out.colSel[i] = t.colSel[j]
		}
	}
	return out
}

// rowAt maps logical row i of a column read through sel to its physical
// position.
func rowAt(sel []int32, i int) int {
	if sel != nil {
		return int(sel[i])
	}
	return i
}

// keyAt reads the key at logical row i of a selection-aware key column.
func keyAt[K comparable](data []K, sel []int32, i int) K {
	return data[rowAt(sel, i)]
}

// Limit truncates t to its first n rows as a view (the input table is
// never written, so concurrent streams can limit one shared table). The
// step is logged with the truncated view's own width; both cost models
// fold limits into the surrounding job, so replayed costs are unchanged.
func (e *Exec) Limit(t *Table, n int) *Table {
	idx := make([]int32, min(n, t.NumRows()))
	for i := range idx {
		idx[i] = int32(i)
	}
	out := view(t, t.Name, idx)
	e.Log.add(Step{
		Kind: StepLimit, Table: t.Name,
		LeftRows: t.NumRows(), OutRows: out.NumRows(),
		LeftBase: t.Base,
	}, t, nil, out)
	return out
}

// extendSlice fills a length-n slice with fn(i), morsel by morsel (each
// index writes its own slot, so the result is identical at any
// parallelism).
func extendSlice[T any](n, workers int, fn func(i int) T) []T {
	xs := make([]T, n)
	parallelMorsels(n, MorselRows, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] = fn(i)
		}
	})
	return xs
}

// ExtendInt appends a computed Int column to t (no step logged;
// expression evaluation is costed with the surrounding operator). fn
// receives logical row indices of t and runs across the Exec's worker
// pool; the new column is dense and t's columns stay as they are.
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

// extendWith appends the dense column col to t's columns, which keep
// their vectors and selections.
func extendWith(t *Table, name string, col *Vector) *Table {
	cols := make([]*Vector, 0, len(t.Cols)+1)
	cols = append(cols, t.Cols...)
	cols = append(cols, col)
	sch := make(Schema, 0, len(t.Schema)+1)
	sch = append(sch, t.Schema...)
	sch = append(sch, Column{Name: name, Type: col.Kind})
	out := &Table{Name: t.Name, Schema: sch, Cols: cols, Base: t.Base, sels: t.sels}
	if t.colSel != nil {
		out.colSel = append(make([]int, 0, len(cols)), t.colSel...)
		out.colSel = append(out.colSel, -1)
	}
	return out
}
