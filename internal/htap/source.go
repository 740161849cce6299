// The scan side of the pipeline: a held table's relal.Source stitches
// base part + converted parts + the unconverted delta tail into one
// table per scan. Each scan loads the view pointer once, so it sees a
// consistent snapshot (never a trimmed tail without its converted part,
// never a row twice); full cross-table consistency holds once writes
// quiesce, which is when the golden tests compare answers.
package htap

import (
	"errors"
	"sort"

	"elephants/internal/delta"
	"elephants/internal/rcfile"
	"elephants/internal/relal"
)

// htapSource serves one held table's scans over its current view.
type htapSource struct {
	store *Store
	st    *tableState
	base  *relal.Table // schema donor
}

func (h *htapSource) SrcName() string { return h.st.name }

func (h *htapSource) SrcSchema() relal.Schema { return h.st.schema }

// ScanTable implements relal.Source: every part (and the tail snapshot)
// scans with the same column subset and predicate, their byte
// accounting sums, and the parts concatenate in row order. A part may
// prune row groups the predicate rules out — surviving rows keep their
// order, so the query's own filter sees exactly the rows a full scan
// would, in the same order.
//
// A converted part whose chunk fails CRC verification is quarantined
// and the scan retries over the degraded view — the dropped rows come
// back through the re-extended tail, so the answer is identical, never
// wrong. The loop terminates because every retry has strictly fewer
// verified parts (the base part and the in-memory tail cannot fail
// verification).
func (h *htapSource) ScanTable(cols []string, pred relal.ZonePredicate) (*relal.Table, relal.ScanStats) {
	var degraded relal.ScanStats // accounting from abandoned attempts
	for {
		t, stats, bad := h.scanView(cols, pred)
		if bad == nil {
			stats.Add(degraded)
			return t, stats
		}
		degraded.Add(stats)
		h.store.corruptChunks.Add(int64(stats.CorruptChunks))
		h.store.quarantine(h.st, bad)
	}
}

// scanView scans the current view once. On a CRC failure it returns the
// offending part (with the partial stats of the abandoned attempt);
// otherwise bad is nil.
func (h *htapSource) scanView(cols []string, pred relal.ZonePredicate) (_ *relal.Table, stats relal.ScanStats, bad *part) {
	v := h.st.view.Load()
	tables := make([]*relal.Table, 0, len(v.parts)+1)
	for _, p := range v.parts {
		var t *relal.Table
		var st relal.ScanStats
		if !p.base && p.rcf != nil {
			// Converted parts may have been read back from disk; scan
			// through the verifying path and degrade on corruption.
			var err error
			t, st, err = p.rcf.TryScan(cols, pred)
			if err != nil {
				if errors.Is(err, rcfile.ErrCorrupt) {
					stats.Add(st)
					return nil, stats, p
				}
				panic("htap: " + err.Error())
			}
		} else {
			// The base part wraps bytes encoded in-process this run;
			// corruption there is a programming bug, so keep the
			// panicking path.
			t, st = p.src.ScanTable(cols, pred)
		}
		stats.Add(st)
		tables = append(tables, t)
	}
	if len(v.tail) > 0 {
		t, st := v.tailSource(h.st).ScanTable(cols, pred)
		stats.Add(st)
		tables = append(tables, t)
	}
	if len(tables) == 1 {
		return tables[0], stats, nil
	}
	schema := h.st.schema
	if len(cols) > 0 {
		schema = make(relal.Schema, len(cols))
		for i, c := range cols {
			schema[i] = h.st.schema[h.st.schema.Col(c)]
		}
	}
	return relal.Concat(h.st.name, schema, tables...), stats, nil
}

// tailSource returns the view's memoized tail snapshot, building it on
// first use. The snapshot is an in-memory TableSource so tail scans get
// the same zone-map pruning stats model as any in-memory part.
func (v *tableView) tailSource(st *tableState) *relal.TableSource {
	if src := v.tailSrc.Load(); src != nil {
		return src
	}
	src := relal.NewTableSource(recordsTable(st, v.tail))
	v.tailSrc.CompareAndSwap(nil, src)
	return v.tailSrc.Load()
}

// recordsTable materializes records as a typed column table with st's
// schema. Str columns re-encode against the base table's dictionary
// when every value is present in it (so same-dictionary concatenation
// and code-native kernels keep firing over base + delta); a value
// outside the dictionary degrades the column to raw strings, which
// kernels handle answer-identically.
func recordsTable(st *tableState, recs []delta.Record) *relal.Table {
	n := len(recs)
	cols := make([]*relal.Vector, len(st.schema))
	for ci, col := range st.schema {
		switch col.Type {
		case relal.Int:
			xs := make([]int64, n)
			for i, r := range recs {
				xs[i] = r.Cells[ci].Int
			}
			cols[ci] = relal.IntsV(xs)
		case relal.Float:
			xs := make([]float64, n)
			for i, r := range recs {
				xs[i] = r.Cells[ci].Float
			}
			cols[ci] = relal.FloatsV(xs)
		default:
			cols[ci] = strColumn(st.base.Cols[ci], recs, ci)
		}
	}
	return relal.NewTable(st.name, st.schema, cols...)
}

// strColumn builds a Str vector for cell index ci of recs, reusing
// baseCol's dictionary when possible.
func strColumn(baseCol *relal.Vector, recs []delta.Record, ci int) *relal.Vector {
	if baseCol.IsDict() {
		vals := baseCol.DictVals
		codes := make([]uint32, len(recs))
		ok := true
		for i, r := range recs {
			s := r.Cells[ci].Str
			k := sort.SearchStrings(vals, s)
			if k >= len(vals) || vals[k] != s {
				ok = false
				break
			}
			codes[i] = uint32(k)
		}
		if ok {
			return relal.DictV(codes, vals)
		}
	}
	xs := make([]string, len(recs))
	for i, r := range recs {
		xs[i] = r.Cells[ci].Str
	}
	return relal.StrsV(xs)
}
