package sqleng

import "elephants/internal/storage"

// BufferPool models page residency with LRU replacement. It does not hold
// page bytes (the functional layer does); it answers "was this page in
// memory?" so the engine can charge simulated I/O for misses, and tracks
// dirty pages so checkpoints can charge write I/O. The eviction core is
// the shared storage.ByteLRU, instantiated with unit weights so the
// capacity counts pages.
type BufferPool struct {
	lru     *storage.ByteLRU[PageID, struct{}]
	dirty   map[PageID]bool
	victim  PageID // last eviction observed by the onEvict hook
	evicted bool
}

// NewBufferPool returns a pool that can hold capacity pages (>= 1).
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	b := &BufferPool{dirty: make(map[PageID]bool)}
	b.lru = storage.NewByteLRU[PageID, struct{}](int64(capacity), func(id PageID, _ struct{}) {
		b.victim, b.evicted = id, true
	})
	return b
}

// Capacity returns the pool capacity in pages.
func (b *BufferPool) Capacity() int { return int(b.lru.Capacity()) }

// Len returns the number of resident pages.
func (b *BufferPool) Len() int { return b.lru.Len() }

// Touch records an access to page id. It reports whether the page was
// resident (hit) and, if bringing it in evicted a dirty page, the evicted
// page's ID (evictedDirty=false means nothing dirty was written back).
func (b *BufferPool) Touch(id PageID) (hit bool, evicted PageID, evictedDirty bool) {
	if _, ok := b.lru.Get(id); ok {
		return true, 0, false
	}
	b.evicted = false
	b.lru.Put(id, struct{}{}, 1)
	if b.evicted {
		evicted = b.victim
		evictedDirty = b.dirty[evicted]
		delete(b.dirty, evicted)
	}
	return false, evicted, evictedDirty
}

// Contains reports whether the page is resident without touching it.
func (b *BufferPool) Contains(id PageID) bool { return b.lru.Contains(id) }

// MarkDirty marks a resident page dirty. Marking a non-resident page is a
// no-op (the write already went to simulated disk).
func (b *BufferPool) MarkDirty(id PageID) {
	if b.lru.Contains(id) {
		b.dirty[id] = true
	}
}

// DirtyCount returns the number of dirty resident pages.
func (b *BufferPool) DirtyCount() int { return len(b.dirty) }

// FlushAll marks all dirty pages clean and returns how many were flushed;
// the caller charges the corresponding write I/O (checkpoint).
func (b *BufferPool) FlushAll() int {
	n := len(b.dirty)
	b.dirty = make(map[PageID]bool)
	return n
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (b *BufferPool) HitRate() float64 {
	hits, misses := b.lru.Stats()
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Stats returns cumulative hit and miss counts.
func (b *BufferPool) Stats() (hits, misses int64) { return b.lru.Stats() }
