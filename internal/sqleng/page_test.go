package sqleng

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBufferPoolHitMiss(t *testing.T) {
	b := NewBufferPool(2)
	if hit, _, _ := b.Touch(1); hit {
		t.Error("first touch should miss")
	}
	if hit, _, _ := b.Touch(1); !hit {
		t.Error("second touch should hit")
	}
	b.Touch(2)
	// Pool full; touching 3 evicts LRU page 1.
	_, evicted, dirty := b.Touch(3)
	if evicted != 1 || dirty {
		t.Errorf("evicted %d dirty=%v, want page 1 clean", evicted, dirty)
	}
	if b.Contains(1) {
		t.Error("page 1 should be evicted")
	}
}

func TestBufferPoolLRUOrder(t *testing.T) {
	b := NewBufferPool(2)
	b.Touch(1)
	b.Touch(2)
	b.Touch(1) // 2 is now LRU
	_, evicted, _ := b.Touch(3)
	if evicted != 2 {
		t.Errorf("evicted %d, want 2", evicted)
	}
}

func TestBufferPoolDirtyEviction(t *testing.T) {
	b := NewBufferPool(1)
	b.Touch(1)
	b.MarkDirty(1)
	_, evicted, dirty := b.Touch(2)
	if evicted != 1 || !dirty {
		t.Errorf("evicted %d dirty=%v, want 1 dirty", evicted, dirty)
	}
}

func TestBufferPoolFlushAll(t *testing.T) {
	b := NewBufferPool(10)
	for i := PageID(1); i <= 5; i++ {
		b.Touch(i)
		b.MarkDirty(i)
	}
	if n := b.FlushAll(); n != 5 {
		t.Errorf("flushed %d, want 5", n)
	}
	if b.DirtyCount() != 0 {
		t.Error("dirty pages remain after flush")
	}
}

func TestBufferPoolMarkDirtyNonResident(t *testing.T) {
	b := NewBufferPool(1)
	b.MarkDirty(99) // no-op
	if b.DirtyCount() != 0 {
		t.Error("non-resident page must not be marked dirty")
	}
}

func TestBufferPoolHitRate(t *testing.T) {
	b := NewBufferPool(4)
	b.Touch(1)
	b.Touch(1)
	b.Touch(1)
	b.Touch(2)
	if got := b.HitRate(); got != 0.5 {
		t.Errorf("hit rate %g, want 0.5", got)
	}
}

func TestBTreeInsertGet(t *testing.T) {
	bt := NewBTree(4, nil)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key%04d", i)
		added, _ := bt.Insert(key, int64(i))
		if !added {
			t.Fatalf("insert %q reported duplicate", key)
		}
	}
	if bt.Len() != 100 {
		t.Fatalf("len = %d, want 100", bt.Len())
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key%04d", i)
		v, ok, path := bt.Get(key)
		if !ok || v != int64(i) {
			t.Fatalf("Get(%q) = %d,%v", key, v, ok)
		}
		if len(path) != bt.Height() {
			t.Fatalf("path len %d != height %d", len(path), bt.Height())
		}
	}
}

func TestBTreeUpdateInPlace(t *testing.T) {
	bt := NewBTree(4, nil)
	bt.Insert("a", 1)
	added, _ := bt.Insert("a", 2)
	if added {
		t.Error("re-insert should not add")
	}
	if v, _, _ := bt.Get("a"); v != 2 {
		t.Errorf("value = %d, want 2", v)
	}
	if bt.Len() != 1 {
		t.Errorf("len = %d, want 1", bt.Len())
	}
}

func TestBTreeMissingKey(t *testing.T) {
	bt := NewBTree(4, nil)
	bt.Insert("b", 1)
	if _, ok, _ := bt.Get("a"); ok {
		t.Error("found absent key")
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree(4, nil)
	for i := 0; i < 50; i++ {
		bt.Insert(fmt.Sprintf("k%03d", i), int64(i))
	}
	ok, _ := bt.Delete("k025")
	if !ok {
		t.Fatal("delete existing key failed")
	}
	if _, found, _ := bt.Get("k025"); found {
		t.Error("deleted key still present")
	}
	if ok, _ := bt.Delete("k025"); ok {
		t.Error("double delete reported success")
	}
	if bt.Len() != 49 {
		t.Errorf("len = %d, want 49", bt.Len())
	}
}

func TestBTreeScan(t *testing.T) {
	bt := NewBTree(4, nil)
	for i := 0; i < 100; i++ {
		bt.Insert(fmt.Sprintf("k%03d", i), int64(i))
	}
	entries, _ := bt.Scan("k010", 5)
	if len(entries) != 5 {
		t.Fatalf("scan returned %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		want := fmt.Sprintf("k%03d", 10+i)
		if e.Key != want || e.Val != int64(10+i) {
			t.Errorf("entry %d = %+v, want key %s", i, e, want)
		}
	}
}

func TestBTreeScanPastEnd(t *testing.T) {
	bt := NewBTree(4, nil)
	bt.Insert("a", 1)
	entries, _ := bt.Scan("b", 10)
	if len(entries) != 0 {
		t.Errorf("scan past end returned %d entries", len(entries))
	}
}

func TestBTreeOrderedProperty(t *testing.T) {
	f := func(keys []uint32) bool {
		bt := NewBTree(8, nil)
		uniq := make(map[string]bool)
		for _, k := range keys {
			key := fmt.Sprintf("%08x", k)
			bt.Insert(key, int64(k))
			uniq[key] = true
		}
		if bt.Len() != len(uniq) {
			return false
		}
		var got []string
		bt.Ascend(func(k string, v int64) bool {
			got = append(got, k)
			return true
		})
		if !sort.StringsAreSorted(got) {
			return false
		}
		return len(got) == len(uniq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBTreeRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bt := NewBTree(16, nil)
	ref := make(map[string]int64)
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("%06d", rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Int63()
			bt.Insert(k, v)
			ref[k] = v
		case 2:
			bt.Delete(k)
			delete(ref, k)
		}
	}
	if bt.Len() != len(ref) {
		t.Fatalf("len = %d, want %d", bt.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok, _ := bt.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%q) = %d,%v; want %d", k, got, ok, v)
		}
	}
}

func TestBTreeExternalAllocator(t *testing.T) {
	var next PageID = 100
	alloc := func() PageID { next++; return next }
	bt := NewBTree(4, alloc)
	bt.Insert("x", 1)
	_, _, path := bt.Get("x")
	if path[0] <= 100 {
		t.Errorf("root page %d, want allocator-assigned (>100)", path[0])
	}
}

func TestHeapFileInsertRead(t *testing.T) {
	h := NewHeapFile(nil)
	rid := h.Insert([]byte("hello"))
	got, err := h.Read(rid)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Read = %q, %v", got, err)
	}
}

func TestHeapFilePacking(t *testing.T) {
	h := NewHeapFile(nil)
	rec := make([]byte, 1024) // YCSB-size record
	for i := 0; i < 7; i++ {
		h.Insert(rec)
	}
	if h.Pages() != 1 {
		t.Errorf("7×1KB records used %d pages, want 1", h.Pages())
	}
	h.Insert(rec)
	if h.Pages() != 2 {
		t.Errorf("8th record should spill to page 2, got %d pages", h.Pages())
	}
}

func TestHeapFileUpdateDelete(t *testing.T) {
	h := NewHeapFile(nil)
	rid := h.Insert([]byte("aaa"))
	if err := h.Update(rid, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	got, _ := h.Read(rid)
	if string(got) != "bbbb" {
		t.Errorf("after update: %q", got)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(rid); err == nil {
		t.Error("read after delete should fail")
	}
	if h.Len() != 0 {
		t.Errorf("len = %d, want 0", h.Len())
	}
}

func TestHeapFileBadRID(t *testing.T) {
	h := NewHeapFile(nil)
	h.Insert([]byte("x"))
	if _, err := h.Read(RID{Page: 99, Slot: 0}); err == nil {
		t.Error("read of bad page should fail")
	}
	if _, err := h.Read(RID{Page: 1, Slot: 5}); err == nil {
		t.Error("read of bad slot should fail")
	}
	if err := h.Update(RID{Page: 99, Slot: 0}, nil); err == nil {
		t.Error("update of bad rid should fail")
	}
}

func TestHeapFileCopiesRecord(t *testing.T) {
	h := NewHeapFile(nil)
	buf := []byte("orig")
	rid := h.Insert(buf)
	buf[0] = 'X'
	got, _ := h.Read(rid)
	if string(got) != "orig" {
		t.Error("heap file must copy inserted records")
	}
}

func TestHeapFileManyPagesBinarySearch(t *testing.T) {
	h := NewHeapFile(nil)
	rec := make([]byte, 4000)
	var rids []RID
	for i := 0; i < 100; i++ {
		rids = append(rids, h.Insert(rec))
	}
	for _, rid := range rids {
		if _, err := h.Read(rid); err != nil {
			t.Fatalf("read %v: %v", rid, err)
		}
	}
}
