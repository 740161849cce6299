// Command scanstats measures RCFile storage effectiveness: it
// generates a functional TPC-H dataset, encodes every base table into
// RCFile (RCF6: zone-map footer, multi-row-group, adaptive per-chunk
// encodings, per-chunk and footer CRCs), runs the requested queries through the
// pushdown-aware scan pipeline, and emits the per-table
// bytes-read/bytes-skipped accounting as JSON — plus, per base table,
// the per-string-column dictionary cardinality and encoded-vs-raw byte
// ratio, so the compression win is observable without a benchmark run.
//
// With -enc it instead prints the per-chunk encoding census: for every
// column of every base table, how many chunks landed on each encoding
// (plain, gdict, gdict+rle, rle, delta) and each encoding's share of
// the column's compressed bytes — the writer's adaptive per-chunk
// choice made observable. -cluster re-sorts a base table first, which
// is what turns sorted-column chunks into runs.
//
// Usage:
//
//	scanstats [-sf 0.01] [-group-rows 2048] [-queries 1,6] [-cache-mb M] [-cluster l_shipdate]
//	scanstats -enc [-cluster l_shipdate]   # encoding histogram
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"elephants/internal/rcfile"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// tableStats is one base table's scan accounting within one query.
type tableStats struct {
	BytesRead     int64   `json:"bytes_read"`
	BytesSkipped  int64   `json:"bytes_skipped"`
	ReadFrac      float64 `json:"read_frac"`
	GroupsRead    int     `json:"groups_read"`
	GroupsSkipped int     `json:"groups_skipped"`
	// BytesFromCache ⊆ BytesRead: compressed bytes whose decoded chunks
	// came from the shared chunk cache instead of fresh inflation.
	BytesFromCache int64 `json:"bytes_from_cache"`
	CacheHits      int   `json:"cache_hits"`
	CacheMisses    int   `json:"cache_misses"`
}

// columnDict describes one Str column's dictionary story: how many
// distinct values it holds and how its modeled encoded size compares to
// the raw length-prefixed strings.
type columnDict struct {
	Cardinality  int     `json:"cardinality"`
	Dict         bool    `json:"dict"`
	RawBytes     int64   `json:"raw_bytes"`
	EncodedBytes int64   `json:"encoded_bytes"`
	Ratio        float64 `json:"encoded_ratio"`
}

// tableReport is one base table's storage summary.
type tableReport struct {
	Rows        int                    `json:"rows"`
	RCFileBytes int                    `json:"rcfile_bytes"`
	FileID      string                 `json:"file_id"`
	StrColumns  map[string]*columnDict `json:"str_columns"`
}

// storageReport is the file-level storage total, deduplicated by
// content-derived file ID: a file served through several sources (or two
// byte-identical encodings) is charged once, so dictionary bytes are not
// double-counted the way summing per-source sizes would.
type storageReport struct {
	TotalBytes  int64 `json:"total_bytes"`
	UniqueBytes int64 `json:"unique_bytes"`
	UniqueFiles int   `json:"unique_files"`
}

type report struct {
	SF        float64                           `json:"sf"`
	GroupRows int                               `json:"group_rows"`
	Dict      bool                              `json:"dict"` // always true: the generator dictionary-encodes tpch.DefaultDictColumns
	CacheMB   int                               `json:"cache_mb"`
	Storage   storageReport                     `json:"storage"`
	Tables    map[string]*tableReport           `json:"tables"`
	Queries   map[string]map[string]*tableStats `json:"queries"`
}

func main() {
	sf := flag.Float64("sf", 0.01, "scale factor of the functional dataset")
	groupRows := flag.Int("group-rows", 2048, "RCFile row-group size in rows")
	queries := flag.String("queries", "1,6", "query IDs, comma-separated")
	seed := flag.Int64("seed", 1, "generator seed")
	cluster := flag.String("cluster", "", "cluster the owning base table on this column before encoding (e.g. l_shipdate)")
	encMode := flag.Bool("enc", false, "print the per-column chunk-encoding histogram and exit")
	cacheMB := flag.Int("cache-mb", 0, "attach a shared decompressed-chunk cache of this many MiB (0 = none)")
	flag.Parse()

	db := tpch.Generate(tpch.GenConfig{SF: *sf, Seed: *seed, Random64: true})
	if *cluster != "" {
		if _, err := db.Cluster(*cluster); err != nil {
			fmt.Fprintln(os.Stderr, "scanstats:", err)
			os.Exit(1)
		}
	}

	if *encMode {
		if err := printEncReport(db, *groupRows); err != nil {
			fmt.Fprintln(os.Stderr, "scanstats:", err)
			os.Exit(1)
		}
		return
	}

	ids, err := parseIDs(*queries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanstats:", err)
		os.Exit(1)
	}

	rep := report{
		SF: *sf, GroupRows: *groupRows, Dict: true, CacheMB: *cacheMB,
		Tables:  map[string]*tableReport{},
		Queries: map[string]map[string]*tableStats{},
	}
	var cache *rcfile.ChunkCache
	if *cacheMB > 0 {
		cache = rcfile.NewChunkCache(int64(*cacheMB) << 20)
	}
	seenFiles := map[uint64]bool{}
	for _, name := range tpch.TableNames {
		t := db.Table(name)
		src, err := rcfile.NewSource(t, *groupRows)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scanstats: encode", name+":", err)
			os.Exit(1)
		}
		src.SetCache(cache)
		db.SetSource(name, src)
		tr := tableSummary(t, src.Bytes())
		tr.FileID = fmt.Sprintf("%016x", src.FileID())
		rep.Tables[name] = tr
		rep.Storage.TotalBytes += int64(src.Bytes())
		if !seenFiles[src.FileID()] {
			seenFiles[src.FileID()] = true
			rep.Storage.UniqueBytes += int64(src.Bytes())
		}
	}
	rep.Storage.UniqueFiles = len(seenFiles)

	for _, id := range ids {
		_, log := tpch.RunQuery(id, db)
		per := map[string]*tableStats{}
		for _, step := range log.Steps {
			if step.Kind != relal.StepScan || step.LeftBase == "" {
				continue
			}
			ts := per[step.LeftBase]
			if ts == nil {
				ts = &tableStats{}
				per[step.LeftBase] = ts
			}
			ts.BytesRead += step.ScanBytesRead
			ts.BytesSkipped += step.ScanBytesSkipped
			ts.GroupsRead += step.ScanGroupsRead
			ts.GroupsSkipped += step.ScanGroupsSkipped
			ts.BytesFromCache += step.ScanBytesFromCache
			ts.CacheHits += step.ScanCacheHits
			ts.CacheMisses += step.ScanCacheMisses
		}
		for _, ts := range per {
			if tot := ts.BytesRead + ts.BytesSkipped; tot > 0 {
				ts.ReadFrac = float64(ts.BytesRead) / float64(tot)
			}
		}
		rep.Queries[fmt.Sprintf("Q%d", id)] = per
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "scanstats:", err)
		os.Exit(1)
	}
}

// tableSummary reports, per Str column, the dictionary cardinality and
// the modeled encoded-vs-raw byte ratio (codes + dictionary against
// length-prefixed strings, both pre-compression).
func tableSummary(t *relal.Table, fileBytes int) *tableReport {
	tr := &tableReport{
		Rows:        t.NumRows(),
		RCFileBytes: fileBytes,
		StrColumns:  map[string]*columnDict{},
	}
	n := t.NumRows()
	for ci, c := range t.Schema {
		if c.Type != relal.Str {
			continue
		}
		v := t.Cols[ci]
		cd := &columnDict{Dict: v.IsDict()}
		var raw, enc int64
		if v.IsDict() {
			cd.Cardinality = len(v.DictVals)
			for _, code := range v.Dict {
				raw += 4 + int64(len(v.DictVals[code]))
			}
			enc = relal.DictEncodedBytes(v.DictVals, n)
		} else {
			distinct := map[string]struct{}{}
			for i := 0; i < n; i++ {
				s := v.StrAt(int32(i))
				distinct[s] = struct{}{}
				raw += 4 + int64(len(s))
			}
			cd.Cardinality = len(distinct)
			enc = raw
		}
		cd.RawBytes, cd.EncodedBytes = raw, enc
		if raw > 0 {
			cd.Ratio = float64(enc) / float64(raw)
		}
		tr.StrColumns[c.Name] = cd
	}
	return tr
}

// encColumn is one column's chunk-encoding census: chunk counts and
// compressed-byte shares keyed by encoding name, zero encodings omitted.
type encColumn struct {
	Type      string             `json:"type"`
	Chunks    map[string]int     `json:"chunks"`
	CompBytes map[string]int64   `json:"comp_bytes"`
	ByteShare map[string]float64 `json:"byte_share"`
}

// printEncReport encodes every base table and emits the per-column
// encoding histogram straight from the RCFile footers (no chunk is
// decompressed, no query runs).
func printEncReport(db *tpch.DB, groupRows int) error {
	rep := map[string]map[string]*encColumn{}
	for _, name := range tpch.TableNames {
		t := db.Table(name)
		src, err := rcfile.NewSource(t, groupRows)
		if err != nil {
			return fmt.Errorf("encode %s: %w", name, err)
		}
		cols := map[string]*encColumn{}
		for ci, st := range src.EncodingStats() {
			ec := &encColumn{
				Type:      typeName(t.Schema[ci].Type),
				Chunks:    map[string]int{},
				CompBytes: map[string]int64{},
				ByteShare: map[string]float64{},
			}
			var total int64
			for _, b := range st.CompBytes {
				total += b
			}
			for e, n := range st.Chunks {
				if n == 0 {
					continue
				}
				ec.Chunks[rcfile.EncNames[e]] = n
				ec.CompBytes[rcfile.EncNames[e]] = st.CompBytes[e]
				if total > 0 {
					ec.ByteShare[rcfile.EncNames[e]] = float64(st.CompBytes[e]) / float64(total)
				}
			}
			cols[t.Schema[ci].Name] = ec
		}
		rep[name] = cols
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func typeName(t relal.Type) string {
	switch t {
	case relal.Int:
		return "int"
	case relal.Float:
		return "float"
	default:
		return "str"
	}
}

func parseIDs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || id < 1 || id > 22 {
			return nil, fmt.Errorf("bad query id %q", part)
		}
		out = append(out, id)
	}
	return out, nil
}
