package sqleng

import "fmt"

// HeapFile is a slotted-page record store: records are appended to the
// last page with room, addressed by RID, and updated in place. Record
// payloads are opaque byte slices. Page occupancy is tracked by byte size
// against PageSize with a per-record slot overhead, so a 1 KB YCSB record
// packs ~7 to an 8 KB page, as it would in SQL Server.
type HeapFile struct {
	pages    []*heapPage
	basePage PageID
	alloc    func() PageID
	slotOvh  int
	count    int
}

type heapPage struct {
	id    PageID
	used  int
	slots [][]byte // nil slot = deleted
}

// slotOverhead approximates the per-row header + slot array cost.
const slotOverhead = 16

// NewHeapFile returns an empty heap file. alloc assigns PageIDs (shared
// with the engine's index pages); if nil, pages are numbered from 1.
func NewHeapFile(alloc func() PageID) *HeapFile {
	h := &HeapFile{alloc: alloc, slotOvh: slotOverhead}
	return h
}

func (h *HeapFile) newPage() *heapPage {
	var id PageID
	if h.alloc != nil {
		id = h.alloc()
	} else {
		h.basePage++
		id = h.basePage
	}
	p := &heapPage{id: id}
	h.pages = append(h.pages, p)
	return p
}

// Insert appends a record and returns its RID.
func (h *HeapFile) Insert(rec []byte) RID {
	need := len(rec) + h.slotOvh
	var p *heapPage
	if n := len(h.pages); n > 0 && h.pages[n-1].used+need <= PageSize {
		p = h.pages[n-1]
	} else {
		p = h.newPage()
	}
	cp := make([]byte, len(rec))
	copy(cp, rec)
	p.slots = append(p.slots, cp)
	p.used += need
	h.count++
	return RID{Page: p.id, Slot: len(p.slots) - 1}
}

// pageByID finds the heap page with the given PageID.
func (h *HeapFile) pageByID(id PageID) (*heapPage, error) {
	// Pages are allocated in ascending PageID order; binary search.
	lo, hi := 0, len(h.pages)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case h.pages[mid].id == id:
			return h.pages[mid], nil
		case h.pages[mid].id < id:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return nil, fmt.Errorf("sqleng: no heap page %d", id)
}

// Read returns the record at rid.
func (h *HeapFile) Read(rid RID) ([]byte, error) {
	p, err := h.pageByID(rid.Page)
	if err != nil {
		return nil, err
	}
	if rid.Slot < 0 || rid.Slot >= len(p.slots) || p.slots[rid.Slot] == nil {
		return nil, fmt.Errorf("sqleng: no record at %v", rid)
	}
	return p.slots[rid.Slot], nil
}

// Update replaces the record at rid in place. Same-size or smaller
// updates always fit; larger updates grow page occupancy (this model does
// not forward records).
func (h *HeapFile) Update(rid RID, rec []byte) error {
	p, err := h.pageByID(rid.Page)
	if err != nil {
		return err
	}
	if rid.Slot < 0 || rid.Slot >= len(p.slots) || p.slots[rid.Slot] == nil {
		return fmt.Errorf("sqleng: no record at %v", rid)
	}
	p.used += len(rec) - len(p.slots[rid.Slot])
	cp := make([]byte, len(rec))
	copy(cp, rec)
	p.slots[rid.Slot] = cp
	return nil
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	p, err := h.pageByID(rid.Page)
	if err != nil {
		return err
	}
	if rid.Slot < 0 || rid.Slot >= len(p.slots) || p.slots[rid.Slot] == nil {
		return fmt.Errorf("sqleng: no record at %v", rid)
	}
	p.used -= len(p.slots[rid.Slot]) + h.slotOvh
	p.slots[rid.Slot] = nil
	h.count--
	return nil
}

// Len returns the number of live records.
func (h *HeapFile) Len() int { return h.count }

// Pages returns the number of allocated pages.
func (h *HeapFile) Pages() int { return len(h.pages) }

// PageIDs returns the IDs of all allocated pages in order.
func (h *HeapFile) PageIDs() []PageID {
	ids := make([]PageID, len(h.pages))
	for i, p := range h.pages {
		ids[i] = p.id
	}
	return ids
}
