// Package shard implements the two data-distribution schemes the paper
// compares on the YCSB side:
//
//   - Auto-sharding (Mongo-AS): order-preserving range partitioning into
//     chunks managed by a config server, routed by mongos processes, with
//     automatic chunk splits and a balancer that migrates chunks between
//     shards. Range partitioning is why Mongo-AS wins Workload E (scans
//     touch one shard) and why its append-heavy Workload D melts down
//     (every append lands on the tail chunk).
//
//   - Client-side hash sharding (Mongo-CS and SQL-CS): the YCSB client
//     hashes the key to pick the home shard directly. Point operations
//     skip the router hop, but range scans must fan out to every shard.
//
// It also provides the simulated mongod process (Mongod) both Mongo
// configurations shard over, and the three client-visible store
// front-ends the YCSB harness drives: MongoAS, MongoCS, and SQLCS.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Chunk is a contiguous key range [Min, next chunk's Min) assigned to a
// shard, with a document counter driving splits.
type Chunk struct {
	Min   string // inclusive lower bound; first chunk uses ""
	Shard int
	Count int64
}

// ChunkMap is the config-server view of the range partitioning: an
// ordered list of chunks covering the whole key space.
type ChunkMap struct {
	chunks []Chunk
}

// NewChunkMap returns a map with a single chunk covering everything,
// owned by shard 0.
func NewChunkMap() *ChunkMap {
	return &ChunkMap{chunks: []Chunk{{Min: "", Shard: 0}}}
}

// PreSplit replaces the map with chunks at the given boundaries assigned
// round-robin across nShards — the manual pre-splitting the paper used
// to avoid migration storms during loading. Boundaries must be sorted
// and non-empty strings.
func (c *ChunkMap) PreSplit(boundaries []string, nShards int) error {
	if nShards < 1 {
		return fmt.Errorf("shard: nShards must be >= 1")
	}
	if !sort.StringsAreSorted(boundaries) {
		return fmt.Errorf("shard: boundaries must be sorted")
	}
	chunks := []Chunk{{Min: "", Shard: 0}}
	for i, b := range boundaries {
		if b == "" {
			return fmt.Errorf("shard: empty boundary")
		}
		if i > 0 && boundaries[i-1] == b {
			return fmt.Errorf("shard: duplicate boundary %q", b)
		}
		chunks = append(chunks, Chunk{Min: b, Shard: (i + 1) % nShards})
	}
	c.chunks = chunks
	return nil
}

// Lookup returns the index of the chunk containing key.
func (c *ChunkMap) Lookup(key string) int {
	// First chunk with Min > key; the one before contains key.
	i := sort.Search(len(c.chunks), func(i int) bool { return c.chunks[i].Min > key })
	return i - 1
}

// ShardFor returns the shard owning key.
func (c *ChunkMap) ShardFor(key string) int { return c.chunks[c.Lookup(key)].Shard }

// ChunksInRange returns the chunk indices overlapping keys >= start, in
// order, up to max entries (a scan rarely needs more than a couple).
func (c *ChunkMap) ChunksInRange(start string, max int) []int {
	first := c.Lookup(start)
	var out []int
	for i := first; i < len(c.chunks) && len(out) < max; i++ {
		out = append(out, i)
	}
	return out
}

// Chunk returns a copy of chunk i.
func (c *ChunkMap) Chunk(i int) Chunk { return c.chunks[i] }

// NumChunks returns the number of chunks.
func (c *ChunkMap) NumChunks() int { return len(c.chunks) }

// AddCount adjusts chunk i's document count by delta.
func (c *ChunkMap) AddCount(i int, delta int64) { c.chunks[i].Count += delta }

// Split splits chunk i at key, leaving [Min, key) in place and creating
// [key, next) with half the count on the same shard. Counts are split
// evenly as an estimate. It returns an error if key is not strictly
// inside the chunk.
func (c *ChunkMap) Split(i int, key string) error {
	ch := c.chunks[i]
	if key <= ch.Min {
		return fmt.Errorf("shard: split key %q not above chunk min %q", key, ch.Min)
	}
	if i+1 < len(c.chunks) && key >= c.chunks[i+1].Min {
		return fmt.Errorf("shard: split key %q beyond chunk end", key)
	}
	left := ch.Count / 2
	right := ch.Count - left
	c.chunks[i].Count = left
	newChunk := Chunk{Min: key, Shard: ch.Shard, Count: right}
	c.chunks = append(c.chunks, Chunk{})
	copy(c.chunks[i+2:], c.chunks[i+1:])
	c.chunks[i+1] = newChunk
	return nil
}

// Move reassigns chunk i to shard.
func (c *ChunkMap) Move(i, shard int) { c.chunks[i].Shard = shard }

// CountsByShard returns the number of chunks per shard.
func (c *ChunkMap) CountsByShard(nShards int) []int {
	counts := make([]int, nShards)
	for _, ch := range c.chunks {
		counts[ch.Shard]++
	}
	return counts
}

// Validate checks the map invariants: chunk 0 has Min "", mins strictly
// ascending, counts non-negative.
func (c *ChunkMap) Validate() error {
	if len(c.chunks) == 0 {
		return fmt.Errorf("shard: empty chunk map")
	}
	if c.chunks[0].Min != "" {
		return fmt.Errorf("shard: first chunk min %q, want \"\"", c.chunks[0].Min)
	}
	for i := 1; i < len(c.chunks); i++ {
		if c.chunks[i].Min <= c.chunks[i-1].Min {
			return fmt.Errorf("shard: chunk mins not ascending at %d", i)
		}
	}
	for i, ch := range c.chunks {
		if ch.Count < 0 {
			return fmt.Errorf("shard: negative count in chunk %d", i)
		}
	}
	return nil
}

// HashShards is the client-side hash partitioner used by Mongo-CS and
// SQL-CS: FNV-1a of the key modulo the shard count.
type HashShards struct {
	n int
}

// NewHashShards returns a hash partitioner over n shards.
func NewHashShards(n int) *HashShards {
	if n < 1 {
		n = 1
	}
	return &HashShards{n: n}
}

// ShardFor returns the home shard for key.
func (h *HashShards) ShardFor(key string) int {
	f := fnv.New64a()
	f.Write([]byte(key))
	return int(f.Sum64() % uint64(h.n))
}

// N returns the number of shards.
func (h *HashShards) N() int { return h.n }
