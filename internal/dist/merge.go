package dist

import (
	"errors"
	"fmt"
	"slices"

	"elephants/internal/relal"
)

// scanSchema is the schema a shard's answer to a scan request must
// carry: the requested columns in request order, out of the table's
// columns plus the hidden position column the shard's copy ends in (no
// columns named = all of them). distSource requests the position column
// last.
func scanSchema(table relal.Schema, cols []string) (relal.Schema, error) {
	full := append(slices.Clone(table), relal.Column{Name: PosCol, Type: relal.Int})
	if len(cols) == 0 {
		return full, nil
	}
	out := make(relal.Schema, len(cols))
	for i, name := range cols {
		k := slices.IndexFunc(full, func(c relal.Column) bool { return c.Name == name })
		if k < 0 {
			return nil, fmt.Errorf("dist: no column %q to scan", name)
		}
		out[i] = full[k]
	}
	return out, nil
}

// checkScanPart holds one shard's decoded scan answer to what the merge
// relies on: exactly the requested schema, and positions strictly
// ascending (a shard's partition keeps the original row order, and
// pruning only drops rows). Anything else is a malformed response.
func checkScanPart(t *relal.Table, want relal.Schema) error {
	if !slices.Equal(t.Schema, want) {
		return fmt.Errorf("dist: scan answered with columns %v, want %v", t.Schema.Names(), want.Names())
	}
	xs := t.Cols[len(want)-1].Ints
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return fmt.Errorf("dist: scan positions not ascending at row %d", i)
		}
	}
	return nil
}

// seg is a stretch of consecutive output rows that all come from one
// part, in that part's order.
type seg struct{ part, n int32 }

// mergeOrder k-way merges the parts' ascending position lists into the
// segment list that interleaves them in global position order. Rows of
// one order hash to one shard and sit next to each other, so segments
// run several rows long and the per-column work below is mostly block
// copies. The partitions are a disjoint cover, so a position held by
// two parts can only mean a row answered twice: dup then names the
// second holder (-1 when every position is unique).
func mergeOrder(pos [][]int64) (segs []seg, dup int) {
	cur := make([]int, len(pos))
	rows := 0
	for _, xs := range pos {
		rows += len(xs)
	}
	segs = make([]seg, 0, rows/4)
	for {
		// m holds the smallest head, next the second smallest.
		m, next := -1, -1
		for p := range pos {
			switch {
			case cur[p] == len(pos[p]):
			case m < 0 || pos[p][cur[p]] < pos[m][cur[m]]:
				m, next = p, m
			case next < 0 || pos[p][cur[p]] < pos[next][cur[next]]:
				next = p
			}
		}
		if m < 0 {
			return segs, -1
		}
		xs, start := pos[m], cur[m]
		end := len(xs)
		if next >= 0 {
			limit := pos[next][cur[next]]
			if xs[start] == limit {
				return nil, next
			}
			for end = start + 1; end < len(xs) && xs[end] < limit; end++ {
			}
		}
		cur[m] = end
		segs = append(segs, seg{part: int32(m), n: int32(end - start)})
	}
}

// mergeCells lays out, in segment order, the cells that cells extracts
// from each part's vector.
func mergeCells[T any](vecs []*relal.Vector, cells func(*relal.Vector) []T, segs []seg, total int) []T {
	parts := make([][]T, len(vecs))
	for i, v := range vecs {
		parts[i] = cells(v)
	}
	out := make([]T, 0, total)
	cur := make([]int32, len(parts))
	for _, s := range segs {
		c := cur[s.part]
		out = append(out, parts[s.part][c:c+s.n]...)
		cur[s.part] = c + s.n
	}
	return out
}

// mergeColumn merges one column of every part: one pass, one output
// allocation. Dictionary columns merge as codes when every part carries
// the same dictionary — shards of one generated dataset do, in separate
// slices after the wire — and degrade to raw strings otherwise, the
// rule relal.Concat applies to a raw part.
func mergeColumn(vecs []*relal.Vector, segs []seg, total int) *relal.Vector {
	oneDict := true
	for _, v := range vecs {
		oneDict = oneDict && v.IsDict() && slices.Equal(v.DictVals, vecs[0].DictVals)
	}
	switch {
	case vecs[0].Kind == relal.Int:
		return relal.IntsV(mergeCells(vecs, func(v *relal.Vector) []int64 { return v.Ints }, segs, total))
	case vecs[0].Kind == relal.Float:
		return relal.FloatsV(mergeCells(vecs, func(v *relal.Vector) []float64 { return v.Floats }, segs, total))
	case oneDict:
		codes := mergeCells(vecs, func(v *relal.Vector) []uint32 { return v.Dict }, segs, total)
		return relal.DictV(codes, vecs[0].DictVals)
	}
	return relal.StrsV(mergeCells(vecs, (*relal.Vector).DecodeStrs, segs, total))
}

// mergeByPos splices the shards' scan answers — each checked by
// checkScanPart — back into global row order and drops the position
// column: the reassembled scan is cell for cell the single-process one.
// The shards' streams are already sorted, so this is a merge, not a
// sort: one pass over the positions, then one gather per column.
func mergeByPos(name string, parts []*relal.Table) (*relal.Table, error) {
	schema := parts[0].Schema[:len(parts[0].Schema)-1]
	var live []int // the shards that answered with rows
	total := 0
	for i, p := range parts {
		if n := p.NumRows(); n > 0 {
			live = append(live, i)
			total += n
		}
	}
	switch len(live) {
	case 0:
		return relal.NewTable(name, schema), nil
	case 1:
		return relal.NewTable(name, schema, parts[live[0]].Cols[:len(schema)]...), nil
	}
	pos := make([][]int64, len(live))
	for i, shard := range live {
		pos[i] = parts[shard].Cols[len(schema)].Ints
	}
	segs, dup := mergeOrder(pos)
	if dup >= 0 {
		return nil, &PartialError{Shard: live[dup], Err: errors.New("dist: scan position already answered by another shard")}
	}
	cols := make([]*relal.Vector, len(schema))
	vecs := make([]*relal.Vector, len(live))
	for ci := range schema {
		for i, shard := range live {
			vecs[i] = parts[shard].Cols[ci]
		}
		cols[ci] = mergeColumn(vecs, segs, total)
	}
	return relal.NewTable(name, schema, cols...), nil
}
