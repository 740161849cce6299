// Package storage holds ByteLRU, the one eviction core the engine and
// the simulator share: a size-bounded least-recently-used map whose
// entries carry explicit byte weights. sqleng.BufferPool instantiates
// it with unit weights (capacity counted in pages); rcfile's
// decompressed-chunk cache instantiates it with decoded chunk sizes
// (capacity counted in bytes). The page structures live in sqleng, so
// an engine package that links storage links no B-tree.
//
// ByteLRU is not safe for concurrent use; callers that share one across
// goroutines wrap it in their own mutex (BufferPool is single-goroutine
// by construction, rcfile.ChunkCache locks).
package storage

import "container/list"

// ByteLRU maps K to V with LRU eviction once the summed entry weights
// exceed the capacity.
type ByteLRU[K comparable, V any] struct {
	capacity int64
	used     int64
	lru      *list.List // front = most recently used
	entries  map[K]*list.Element
	// onEvict, when non-nil, observes each evicted entry (BufferPool
	// uses it to surface dirty-page writebacks).
	onEvict func(key K, val V)

	hits, misses int64
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// NewByteLRU returns an LRU holding at most capacity weight (>= 1).
func NewByteLRU[K comparable, V any](capacity int64, onEvict func(K, V)) *ByteLRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &ByteLRU[K, V]{
		capacity: capacity,
		lru:      list.New(),
		entries:  make(map[K]*list.Element),
		onEvict:  onEvict,
	}
}

// Get returns the value under k, marking it most recently used. Every
// call counts toward the hit/miss statistics.
func (c *ByteLRU[K, V]) Get(k K) (V, bool) {
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Contains reports residency without touching recency or statistics.
func (c *ByteLRU[K, V]) Contains(k K) bool {
	_, ok := c.entries[k]
	return ok
}

// Put inserts (or replaces) the entry under k with the given weight and
// marks it most recently used, then evicts from the cold end until the
// capacity holds. An entry wider than the whole capacity is evicted
// immediately — the cache never lies about its bound.
func (c *ByteLRU[K, V]) Put(k K, v V, size int64) {
	if size < 0 {
		size = 0
	}
	if el, ok := c.entries[k]; ok {
		ent := el.Value.(*lruEntry[K, V])
		c.used += size - ent.size
		ent.val, ent.size = v, size
		c.lru.MoveToFront(el)
	} else {
		c.entries[k] = c.lru.PushFront(&lruEntry[K, V]{key: k, val: v, size: size})
		c.used += size
	}
	for c.used > c.capacity && c.lru.Len() > 0 {
		back := c.lru.Back()
		ent := back.Value.(*lruEntry[K, V])
		c.lru.Remove(back)
		delete(c.entries, ent.key)
		c.used -= ent.size
		if c.onEvict != nil {
			c.onEvict(ent.key, ent.val)
		}
	}
}

// Len returns the number of resident entries.
func (c *ByteLRU[K, V]) Len() int { return c.lru.Len() }

// UsedBytes returns the summed weight of resident entries.
func (c *ByteLRU[K, V]) UsedBytes() int64 { return c.used }

// Capacity returns the configured bound.
func (c *ByteLRU[K, V]) Capacity() int64 { return c.capacity }

// Stats returns cumulative hit and miss counts.
func (c *ByteLRU[K, V]) Stats() (hits, misses int64) { return c.hits, c.misses }

// Keys returns the resident keys from most to least recently used —
// introspection for tests pinning the eviction order.
func (c *ByteLRU[K, V]) Keys() []K {
	out := make([]K, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[K, V]).key)
	}
	return out
}
