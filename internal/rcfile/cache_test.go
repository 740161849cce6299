package rcfile

import (
	"fmt"
	"testing"

	"elephants/internal/relal"
)

// scanSame runs the same projection twice through a cached Source and
// returns the two result tables plus the second scan's stats.
func cachedSource(t *testing.T, rows, groupRows int, cache *ChunkCache) *Source {
	t.Helper()
	src, err := NewSource(sampleTable(rows), groupRows)
	if err != nil {
		t.Fatal(err)
	}
	src.SetCache(cache)
	return src
}

func sameRows(t *testing.T, a, b *relal.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("row counts drift: %d vs %d", a.NumRows(), b.NumRows())
	}
	ar, br := relal.RowsOf(a), relal.RowsOf(b)
	for i := range ar {
		for c := range ar[i] {
			if ar[i][c] != br[i][c] {
				t.Fatalf("cell (%d,%d): %v vs %v", i, c, ar[i][c], br[i][c])
			}
		}
	}
}

// runnyTable is one dict string column in runs of 256 rows, so the
// writer stores every chunk gdict+rle.
func runnyTable(rows int) *relal.Table {
	return relal.NewTable("t", relal.Schema{{Name: "s", Type: relal.Str}},
		relal.EncodeDict(fill(rows, func(i int) string { return []string{"aa", "bb", "cc"}[(i/256)%3] })))
}

// plainTable has runnyTable's shape but nothing to encode: raw distinct
// strings, so the writer stores every chunk plain.
func plainTable(rows int) *relal.Table {
	return relal.NewTable("t", relal.Schema{{Name: "s", Type: relal.Str}},
		relal.StrsV(fill(rows, func(i int) string { return fmt.Sprintf("s%06d", i) })))
}

// TestChunkCacheChargesEncodedFootprint: cache weight accounting
// follows the decoded representation, and run-list chunks keep their
// run form — so at the same capacity, a runny table keeps every chunk
// resident while a same-sized table the writer stores plain is forced
// to evict. Cache capacity buys coverage in proportion to how well the
// data encodes.
func TestChunkCacheChargesEncodedFootprint(t *testing.T) {
	// plainPerCol is the fixture's premise: how many of each column's 16
	// chunks the writer stored plain.
	resident := func(tab *relal.Table, plainPerCol int, capacity int64) (chunks int, used int64, misses int64) {
		src, err := NewSource(tab, 512)
		if err != nil {
			t.Fatal(err)
		}
		for c, st := range src.EncodingStats() {
			if got := st.Chunks[encPlain]; got != plainPerCol {
				t.Fatalf("column %d: %d chunks stored plain, fixture wants %d", c, got, plainPerCol)
			}
		}
		cache := NewChunkCache(capacity)
		src.SetCache(cache)
		src.ScanTable(nil, nil) // populate
		src.ScanTable(nil, nil) // re-read: misses here mean evictions
		_, m := cache.Stats()
		return cache.Len(), cache.UsedBytes(), m
	}
	const capacity = 16 << 10
	encChunks, encUsed, encMisses := resident(runnyTable(8192), 0, capacity)
	plainChunks, plainUsed, plainMisses := resident(plainTable(8192), 16, capacity)
	if encChunks <= plainChunks {
		t.Errorf("resident chunks: enc %d, want > plain %d", encChunks, plainChunks)
	}
	// 8192 rows / 512-row groups = 16 chunks; run-encoded they all fit
	// in 16 KiB, so the second scan is eviction-free.
	if encChunks != 16 {
		t.Errorf("runny resident chunks = %d, want all 16", encChunks)
	}
	if encMisses != 16 {
		t.Errorf("runny misses = %d, want 16 (first scan only)", encMisses)
	}
	if plainMisses <= encMisses {
		t.Errorf("plain misses = %d, want > %d (capacity evictions)", plainMisses, encMisses)
	}
	t.Logf("capacity %d B: runny %d chunks / %d B resident, plain %d chunks / %d B",
		int64(capacity), encChunks, encUsed, plainChunks, plainUsed)
}

func TestChunkCacheServesRepeatScans(t *testing.T) {
	cache := NewChunkCache(1 << 20)
	src := cachedSource(t, 500, 64, cache)

	first, s1 := src.ScanTable(nil, nil)
	if s1.CacheHits != 0 || s1.CacheMisses == 0 {
		t.Fatalf("first scan: %d hits / %d misses, want 0 hits and some misses", s1.CacheHits, s1.CacheMisses)
	}
	if s1.BytesFromCache != 0 {
		t.Fatalf("first scan served %d B from an empty cache", s1.BytesFromCache)
	}

	second, s2 := src.ScanTable(nil, nil)
	if s2.CacheMisses != 0 || s2.CacheHits != s1.CacheMisses {
		t.Fatalf("second scan: %d hits / %d misses, want %d hits / 0 misses",
			s2.CacheHits, s2.CacheMisses, s1.CacheMisses)
	}
	if s2.BytesFromCache != s2.BytesRead {
		t.Fatalf("second scan: %d B from cache, want all %d read bytes", s2.BytesFromCache, s2.BytesRead)
	}
	if s1.BytesRead != s2.BytesRead {
		t.Fatalf("BytesRead is not cache-invariant: %d vs %d", s1.BytesRead, s2.BytesRead)
	}
	sameRows(t, first, second)
}

func TestChunkCacheTinyCapacityStaysCorrect(t *testing.T) {
	// A 1-byte capacity evicts every chunk on insert: nothing is ever
	// served from cache, scans stay correct, and the bound holds.
	cache := NewChunkCache(1)
	src := cachedSource(t, 500, 64, cache)
	plain, _, err := ReadCols(src.data, src.schema, "t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, stats := src.ScanTable(nil, nil)
		if stats.CacheHits != 0 {
			t.Fatalf("scan %d: %d hits from a cache too small to hold a chunk", i, stats.CacheHits)
		}
		sameRows(t, plain, got)
	}
	if cache.UsedBytes() > 1 {
		t.Fatalf("UsedBytes %d exceeds the 1-byte capacity", cache.UsedBytes())
	}
}

func TestChunkCacheDictColumns(t *testing.T) {
	// Dict-encoded string chunks through the cache: cached and fresh
	// decodes must agree (the cached chunk shares its dictionary).
	xs := make([]string, 300)
	for i := range xs {
		xs[i] = []string{"AIR", "RAIL", "SHIP"}[i%3]
	}
	tb := relal.NewTable("d", relal.Schema{{Name: "m", Type: relal.Str}}, relal.EncodeDict(xs))
	src, err := NewSource(tb, 64)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewChunkCache(1 << 20)
	src.SetCache(cache)
	first, _ := src.ScanTable(nil, nil)
	second, stats := src.ScanTable(nil, nil)
	if stats.CacheHits == 0 {
		t.Fatal("repeat dict scan had no cache hits")
	}
	sameRows(t, first, second)
	mv := second.StrCol("m")
	for i := 0; i < second.NumRows(); i++ {
		if got, want := mv.Get(i), xs[i]; got != want {
			t.Fatalf("row %d = %q, want %q", i, got, want)
		}
	}
}

func TestSourcesShareCacheByContent(t *testing.T) {
	// Two Sources over byte-identical tables get the same content-derived
	// FileID, so the second source's scans are served by chunks the first
	// one warmed — and per-file accounting can dedupe on the same ID.
	cache := NewChunkCache(1 << 20)
	a := cachedSource(t, 400, 64, cache)
	b := cachedSource(t, 400, 64, cache)
	if a.FileID() != b.FileID() {
		t.Fatalf("identical files got different IDs: %x vs %x", a.FileID(), b.FileID())
	}
	ta, sa := a.ScanTable(nil, nil)
	tb, sb := b.ScanTable(nil, nil)
	if sa.CacheHits != 0 {
		t.Fatalf("first source warmed nothing yet, saw %d hits", sa.CacheHits)
	}
	if sb.CacheMisses != 0 {
		t.Fatalf("second source missed %d times despite shared content", sb.CacheMisses)
	}
	sameRows(t, ta, tb)
}

func TestChunkCacheEvictionOrder(t *testing.T) {
	// Size the cache to hold roughly two of the three columns' chunks:
	// scanning columns in turn must evict the least recently scanned.
	src, err := NewSource(sampleTable(200), 256) // one group per column
	if err != nil {
		t.Fatal(err)
	}
	one := func(col string) int64 {
		probe := NewChunkCache(1 << 20)
		src.SetCache(probe)
		src.ScanTable([]string{col}, nil)
		return probe.UsedBytes()
	}
	k, v, s := one("k"), one("v"), one("s")
	cache := NewChunkCache(k + v + s - 1) // all three can never be resident
	src.SetCache(cache)
	src.ScanTable([]string{"k"}, nil)
	src.ScanTable([]string{"v"}, nil)
	src.ScanTable([]string{"s"}, nil) // must evict k, the cold end
	_, stats := src.ScanTable([]string{"k"}, nil)
	if stats.CacheHits != 0 {
		t.Fatal("k survived although inserting s overflowed the cache (LRU should have evicted it)")
	}
	_, stats = src.ScanTable([]string{"s"}, nil)
	if stats.CacheMisses != 0 {
		t.Fatal("most recently used column was evicted instead of the LRU one")
	}
}
