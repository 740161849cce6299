// The scan side of the pipeline: a held table's relal.Source hands out
// the current view's prefix of the replica — the base prefix followed
// by every published record — projected to the requested columns. No
// scan copies a cell: the replica is append-only and a view's slices
// are capped at its length, so later commits write only past it. Each scan loads the view pointer once, so it sees a
// consistent snapshot (never a row twice, never a gap); full
// cross-table consistency holds once writes quiesce, which is when the
// golden tests compare answers.
package htap

import (
	"elephants/internal/relal"
)

// SrcName implements relal.Source.
func (st *tableState) SrcName() string { return st.name }

// SrcSchema implements relal.Source.
func (st *tableState) SrcSchema() relal.Schema { return st.schema }

// ScanTable implements relal.Source: it returns the view's table
// restricted to cols, zero-copy, with every row (the query's own filter
// applies the predicate). The stats are the sum of the in-memory scan
// model over the view's segments — the base prefix, each converted
// range, and the tail — each memoized, so no scan computes zone maps
// over the whole table.
func (st *tableState) ScanTable(cols []string, pred relal.ZonePredicate) (*relal.Table, relal.ScanStats) {
	v := st.view.Load()
	var stats relal.ScanStats
	for _, seg := range v.segs {
		_, s := seg.ScanTable(cols, pred)
		stats.Add(s)
	}
	if v.tail > 0 {
		_, s := v.tailSource().ScanTable(cols, pred)
		stats.Add(s)
	}
	return v.t.Columns(cols), stats
}

// tailSource returns the view's memoized tail segment, building it on
// first use. Views are immutable, so concurrent builders compute
// identical segments and the first published pointer wins.
func (v *tableView) tailSource() *relal.TableSource {
	if src := v.tailSrc.Load(); src != nil {
		return src
	}
	n := v.t.NumRows()
	src := relal.NewTableSource(relal.NewTable(v.t.Name, v.t.Schema, window(v.t.Cols, n-v.tail, n)...))
	v.tailSrc.CompareAndSwap(nil, src)
	return v.tailSrc.Load()
}

// window returns zero-copy vectors over rows [lo, hi) of the dense
// vectors cols, each slice capped at hi so an append to cols never
// writes into what the window covers.
func window(cols []*relal.Vector, lo, hi int) []*relal.Vector {
	out := make([]*relal.Vector, len(cols))
	for i, v := range cols {
		switch {
		case v.Kind == relal.Int:
			out[i] = relal.IntsV(v.Ints[lo:hi:hi])
		case v.Kind == relal.Float:
			out[i] = relal.FloatsV(v.Floats[lo:hi:hi])
		case v.IsDict():
			out[i] = relal.DictV(v.Dict[lo:hi:hi], v.DictVals)
		default:
			out[i] = relal.StrsV(v.Strs[lo:hi:hi])
		}
	}
	return out
}
