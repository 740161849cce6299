// Decompressed-chunk cache: the serving stack's caching layer. An
// RCFile is immutable once written, so the decoded form of any column
// chunk — identified by (file, row group, column) — can be shared by
// every query and every stream that scans it. The cache holds those
// decoded chunks behind a byte-bounded LRU (storage.ByteLRU, the
// eviction core factored out of the buffer-pool seed), turning the
// per-round gzip inflation of hot chunks into a map lookup.
//
// Keys are content-derived: a Source's file ID is a hash of its encoded
// bytes, so two Sources wrapping the same file share entries (and
// per-file accounting can dedupe by the same ID). Cached values are
// immutable — numeric chunks are copied into each query's output vector,
// and dict string chunks share their dictionary slice exactly the way
// fresh decodes already do.
package rcfile

import (
	"hash/fnv"
	"sync"

	"elephants/internal/storage"
)

// chunkKey identifies one decoded column chunk: the owning file (a
// content hash, see fileID), the row group's index within the file, and
// the column's index within the schema.
type chunkKey struct {
	file  uint64
	group int
	col   int
}

// chunkData is the decoded form of one column chunk. The fields
// matching the column type are populated, one entry per row, except
// that Str chunks keep the strPart representation — global codes, as a
// run list for a gdict+rle chunk, or raw strings — until a scan
// assembles the column (assembleCol), which expands the runs.
type chunkData struct {
	ints   []int64
	floats []float64
	str    strPart
}

// sizeBytes estimates the decoded chunk's resident size for the LRU
// bound: slice payloads plus a string-header charge. A gdict+rle chunk
// holds one entry per run, so its charge is the encoded footprint — a
// column sorted by its codes costs the cache almost nothing, and more
// of its chunks stay resident at the same capacity.
func (d chunkData) sizeBytes() int64 {
	b := int64(64) // struct + bookkeeping overhead
	b += 8 * int64(len(d.ints)+len(d.floats))
	b += 4 * int64(len(d.str.codes))
	b += 4 * int64(len(d.str.ends))
	for _, s := range d.str.raw {
		b += 16 + int64(len(s))
	}
	return b
}

// ChunkCache is a shared, size-bounded LRU over decoded column chunks.
// Safe for concurrent use; one cache is meant to sit in front of every
// Source in a process (cross-file keys cannot collide).
type ChunkCache struct {
	mu  sync.Mutex
	lru *storage.ByteLRU[chunkKey, chunkData]
}

// NewChunkCache returns a cache bounded at capacity bytes of decoded
// chunk data (>= 1).
func NewChunkCache(capacity int64) *ChunkCache {
	return &ChunkCache{lru: storage.NewByteLRU[chunkKey, chunkData](capacity, nil)}
}

func (c *ChunkCache) get(k chunkKey) (chunkData, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(k)
}

func (c *ChunkCache) put(k chunkKey, d chunkData) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(k, d, d.sizeBytes())
}

// Stats returns cumulative lookup hits and misses.
func (c *ChunkCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Stats()
}

// UsedBytes returns the resident decoded bytes.
func (c *ChunkCache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.UsedBytes()
}

// Len returns the number of resident chunks.
func (c *ChunkCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// fileID hashes encoded file bytes into the cache's file key. Content
// addressing (FNV-1a) rather than a per-Source counter means re-encoding
// the same table — or wrapping one encoded file in several Sources —
// lands on the same entries instead of duplicating them.
func fileID(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}
