package sqleng

import "sort"

// BTree is an in-memory B+tree mapping string keys to int64 values (in
// the engines, RID-encoded record locations). Interior and leaf nodes are
// assigned PageIDs so index traversals can be charged against the buffer
// pool like any other page access.
type BTree struct {
	order  int // max keys per node
	root   *btreeNode
	height int
	size   int
	nextID PageID
	alloc  func() PageID // optional external page allocator
}

type btreeNode struct {
	id       PageID
	leaf     bool
	keys     []string
	vals     []int64      // leaf only, parallel to keys
	children []*btreeNode // interior only, len(keys)+1
	next     *btreeNode   // leaf chain for range scans
}

// DefaultBTreeOrder is the number of keys per node with 24-byte keys and
// 8 KB pages, approximating SQL Server / MongoDB index fanout.
const DefaultBTreeOrder = 256

// NewBTree returns an empty tree. If alloc is non-nil it is used to
// assign PageIDs to nodes (so index pages share the engine's page space);
// otherwise the tree numbers pages from 1.
func NewBTree(order int, alloc func() PageID) *BTree {
	if order < 3 {
		order = DefaultBTreeOrder
	}
	t := &BTree{order: order, alloc: alloc}
	t.root = t.newNode(true)
	t.height = 1
	return t
}

func (t *BTree) newNode(leaf bool) *btreeNode {
	var id PageID
	if t.alloc != nil {
		id = t.alloc()
	} else {
		t.nextID++
		id = t.nextID
	}
	return &btreeNode{id: id, leaf: leaf}
}

// Len returns the number of keys stored.
func (t *BTree) Len() int { return t.size }

// Height returns the tree height (1 for a lone leaf).
func (t *BTree) Height() int { return t.height }

// Get looks up key, returning its value, whether it was found, and the
// page path touched from root to leaf (for buffer-pool charging).
func (t *BTree) Get(key string) (val int64, ok bool, path []PageID) {
	n := t.root
	for {
		path = append(path, n.id)
		if n.leaf {
			i := sort.SearchStrings(n.keys, key)
			if i < len(n.keys) && n.keys[i] == key {
				return n.vals[i], true, path
			}
			return 0, false, path
		}
		n = n.children[childIndex(n.keys, key)]
	}
}

// childIndex returns which child to descend into for key in an interior
// node whose separator keys are keys.
func childIndex(keys []string, key string) int {
	return sort.Search(len(keys), func(i int) bool { return key < keys[i] })
}

// Insert adds or replaces key, returning whether the key was new and the
// root-to-leaf page path touched.
func (t *BTree) Insert(key string, val int64) (added bool, path []PageID) {
	added, path, split := t.insert(t.root, key, val)
	if split != nil {
		newRoot := t.newNode(false)
		newRoot.keys = []string{split.key}
		newRoot.children = []*btreeNode{t.root, split.right}
		t.root = newRoot
		t.height++
		path = append([]PageID{newRoot.id}, path...)
	}
	if added {
		t.size++
	}
	return added, path
}

type splitResult struct {
	key   string
	right *btreeNode
}

func (t *BTree) insert(n *btreeNode, key string, val int64) (added bool, path []PageID, split *splitResult) {
	path = append(path, n.id)
	if n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = val
			return false, path, nil
		}
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		if len(n.keys) > t.order {
			split = t.splitLeaf(n)
		}
		return true, path, split
	}
	ci := childIndex(n.keys, key)
	added, childPath, childSplit := t.insert(n.children[ci], key, val)
	path = append(path, childPath...)
	if childSplit != nil {
		i := sort.SearchStrings(n.keys, childSplit.key)
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = childSplit.key
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = childSplit.right
		if len(n.keys) > t.order {
			split = t.splitInterior(n)
		}
	}
	return added, path, split
}

func (t *BTree) splitLeaf(n *btreeNode) *splitResult {
	mid := len(n.keys) / 2
	right := t.newNode(true)
	right.keys = append(right.keys, n.keys[mid:]...)
	right.vals = append(right.vals, n.vals[mid:]...)
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	right.next = n.next
	n.next = right
	return &splitResult{key: right.keys[0], right: right}
}

func (t *BTree) splitInterior(n *btreeNode) *splitResult {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := t.newNode(false)
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return &splitResult{key: sep, right: right}
}

// Delete removes key, reporting whether it was present and the page path
// touched. Leaves may underflow; this tree does not rebalance on delete
// (as with many production trees, deleted space is reclaimed lazily),
// which preserves ordering invariants.
func (t *BTree) Delete(key string) (ok bool, path []PageID) {
	n := t.root
	for {
		path = append(path, n.id)
		if n.leaf {
			i := sort.SearchStrings(n.keys, key)
			if i < len(n.keys) && n.keys[i] == key {
				n.keys = append(n.keys[:i], n.keys[i+1:]...)
				n.vals = append(n.vals[:i], n.vals[i+1:]...)
				t.size--
				return true, path
			}
			return false, path
		}
		n = n.children[childIndex(n.keys, key)]
	}
}

// ScanEntry is one key/value pair yielded by a range scan.
type ScanEntry struct {
	Key string
	Val int64
}

// Scan returns up to limit entries with keys >= start in ascending order,
// plus the page path touched (root-to-leaf descent, then the leaf chain).
func (t *BTree) Scan(start string, limit int) (entries []ScanEntry, path []PageID) {
	n := t.root
	for !n.leaf {
		path = append(path, n.id)
		n = n.children[childIndex(n.keys, start)]
	}
	i := sort.SearchStrings(n.keys, start)
	for n != nil && len(entries) < limit {
		path = append(path, n.id)
		for ; i < len(n.keys) && len(entries) < limit; i++ {
			entries = append(entries, ScanEntry{Key: n.keys[i], Val: n.vals[i]})
		}
		n = n.next
		i = 0
	}
	return entries, path
}

// Ascend calls fn for every key/value pair in order until fn returns
// false. It does not report page paths; use it for verification only.
func (t *BTree) Ascend(fn func(key string, val int64) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		for i := range n.keys {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}
