// Package btree implements an external B+-tree over the simulated disk — the
// structure the paper's introduction holds up as the solved case: external
// dynamic 1-dimensional range searching in O(log_B n + t/B) I/Os per query
// and O(log_B n) per update, with O(n/B) pages of storage.
//
// It serves three purposes here: the 1-D baseline of experiment E8 (a
// B+-tree answering a 2-sided query by x-range scan plus filter pays
// t_x/B, not t/B), the substrate for the temporal-database example, and a
// reference point for the I/O accounting of the path-cached structures.
//
// Keys are composite (Key int64, Val uint64) pairs so the tree is a multimap
// with unique composite entries; Val is the tuple identifier.
package btree

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pathcache/internal/disk"
)

// Entry is one indexed pair.
type Entry struct {
	Key int64
	Val uint64
}

// less orders entries by (Key, Val).
func (e Entry) less(o Entry) bool {
	if e.Key != o.Key {
		return e.Key < o.Key
	}
	return e.Val < o.Val
}

// Tree is an external B+-tree. Not safe for concurrent mutation.
type Tree struct {
	pager   disk.Pager
	root    disk.PageID
	height  int // levels below the root (0 = root is a leaf)
	size    int
	leafCap int
	intCap  int // max separator count of an internal node
}

// ErrNotFound is returned by Delete when the entry is absent.
var ErrNotFound = errors.New("btree: entry not found")

// Node layout.
//
// Common header: kind uint8 (1=leaf, 2=internal), layout uint8 (always 0;
// see disk.CheckLayoutByte), count uint16.
// Leaf:     [header][next PageID int64][entries: key int64, val uint64]...
// Internal: [header][child0 PageID][sep entries: key, val, child PageID]...
//
// Entry slots hold entries in ascending order; the pointer stored with a
// separator is its right child.
const (
	kindLeaf     = 1
	kindInternal = 2
	hdrSize      = 4
	leafFixed    = hdrSize + 8 // header + next pointer
	leafEntry    = 16
	intFixed     = hdrSize + 8 // header + child0
	intEntry     = 24
)

// New creates an empty tree on p.
func New(p disk.Pager) (*Tree, error) {
	t := &Tree{
		pager:   p,
		leafCap: (p.PageSize() - leafFixed) / leafEntry,
		intCap:  (p.PageSize() - intFixed) / intEntry,
	}
	if t.leafCap < 4 || t.intCap < 4 {
		return nil, fmt.Errorf("btree: page size %d too small", p.PageSize())
	}
	root, err := p.Alloc()
	if err != nil {
		return nil, err
	}
	t.root = root
	if err := t.writeNode(root, &node{kind: kindLeaf, next: disk.InvalidPage}); err != nil {
		return nil, err
	}
	return t, nil
}

// node is the in-memory image of one page.
type node struct {
	kind     uint8
	next     disk.PageID // leaves only
	entries  []Entry     // leaf records, or internal separators
	children []disk.PageID
}

// checkHeader validates a node header against the page size before any slot
// bytes are trusted, returning the kind and count. Every violation wraps
// disk.ErrCorrupt so callers (and the fuzzers) can classify it.
func checkHeader(buf []byte, id disk.PageID) (kind byte, count int, err error) {
	kind = buf[0]
	if kind != kindLeaf && kind != kindInternal {
		return 0, 0, fmt.Errorf("btree: corrupt node %d kind %d: %w", id, kind, disk.ErrCorrupt)
	}
	if err := disk.CheckLayoutByte(buf[1]); err != nil {
		return 0, 0, fmt.Errorf("btree: node %d: %w", id, err)
	}
	count = int(le16(buf[2:]))
	fixed, entry := leafFixed, leafEntry
	if kind == kindInternal {
		fixed, entry = intFixed, intEntry
	}
	if fixed+count*entry > len(buf) {
		return 0, 0, fmt.Errorf("btree: node %d count %d overflows page: %w", id, count, disk.ErrCorrupt)
	}
	return kind, count, nil
}

// readNode decodes one page for the mutating and checking paths; Search and
// Range read through rangeRaw instead.
func (t *Tree) readNode(id disk.PageID) (*node, error) {
	buf := make([]byte, t.pager.PageSize())
	if err := t.pager.Read(id, buf); err != nil {
		return nil, err
	}
	kind, count, err := checkHeader(buf, id)
	if err != nil {
		return nil, err
	}
	n := &node{kind: kind}
	switch kind {
	case kindLeaf:
		n.next = disk.PageID(le64(buf[hdrSize:]))
		n.entries = make([]Entry, count)
		for i := range n.entries {
			off := leafFixed + i*leafEntry
			n.entries[i] = Entry{Key: int64(le64(buf[off:])), Val: le64(buf[off+8:])}
		}
	case kindInternal:
		n.children = make([]disk.PageID, count+1)
		n.children[0] = disk.PageID(le64(buf[hdrSize:]))
		n.entries = make([]Entry, count)
		for i := range n.entries {
			off := intFixed + i*intEntry
			n.entries[i] = Entry{Key: int64(le64(buf[off:])), Val: le64(buf[off+8:])}
			n.children[i+1] = disk.PageID(le64(buf[off+16:]))
		}
	}
	return n, nil
}

func (t *Tree) writeNode(id disk.PageID, n *node) error {
	buf := make([]byte, t.pager.PageSize())
	buf[0] = n.kind // buf[1], the layout byte, stays 0
	put16(buf[2:], uint16(len(n.entries)))
	switch n.kind {
	case kindLeaf:
		put64(buf[hdrSize:], uint64(n.next))
		for i, e := range n.entries {
			off := leafFixed + i*leafEntry
			put64(buf[off:], uint64(e.Key))
			put64(buf[off+8:], e.Val)
		}
	case kindInternal:
		put64(buf[hdrSize:], uint64(n.children[0]))
		for i, e := range n.entries {
			off := intFixed + i*intEntry
			put64(buf[off:], uint64(e.Key))
			put64(buf[off+8:], e.Val)
			put64(buf[off+16:], uint64(n.children[i+1]))
		}
	}
	return t.pager.Write(id, buf)
}

// lowerBound returns the first index i with !entries[i].less(e), i.e. the
// insertion point of e.
func lowerBound(entries []Entry, e Entry) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entries[mid].less(e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex picks the child to descend into for e: child i holds entries
// strictly less than separator i... entries >= separator i-1.
func childIndex(seps []Entry, e Entry) int {
	// First separator greater than e -> its left child.
	lo, hi := 0, len(seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if !e.less(seps[mid]) { // seps[mid] <= e
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Len reports the number of entries.
func (t *Tree) Len() int { return t.size }

// Height reports the number of levels below the root.
func (t *Tree) Height() int { return t.height }

// Insert adds (key, val). Inserting a duplicate (key, val) pair is an
// error, matching unique tuple identifiers.
func (t *Tree) Insert(key int64, val uint64) error {
	e := Entry{Key: key, Val: val}
	sep, right, grew, err := t.insert(t.root, 0, e)
	if err != nil {
		return err
	}
	if grew {
		newRoot, err := t.pager.Alloc()
		if err != nil {
			return err
		}
		rn := &node{kind: kindInternal, entries: []Entry{sep}, children: []disk.PageID{t.root, right}}
		if err := t.writeNode(newRoot, rn); err != nil {
			return err
		}
		t.root = newRoot
		t.height++
	}
	t.size++
	return nil
}

// insert descends to the leaf, inserting e. If the child splits it returns
// the promoted separator and new right sibling.
func (t *Tree) insert(id disk.PageID, depth int, e Entry) (sep Entry, right disk.PageID, grew bool, err error) {
	n, err := t.readNode(id)
	if err != nil {
		return Entry{}, 0, false, err
	}
	if n.kind == kindLeaf {
		i := lowerBound(n.entries, e)
		if i < len(n.entries) && n.entries[i] == e {
			return Entry{}, 0, false, fmt.Errorf("btree: duplicate entry (%d,%d)", e.Key, e.Val)
		}
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		if len(n.entries) <= t.leafCap {
			return Entry{}, 0, false, t.writeNode(id, n)
		}
		// Split leaf.
		mid := len(n.entries) / 2
		rightID, err := t.pager.Alloc()
		if err != nil {
			return Entry{}, 0, false, err
		}
		rn := &node{kind: kindLeaf, next: n.next, entries: append([]Entry(nil), n.entries[mid:]...)}
		n.entries = n.entries[:mid]
		n.next = rightID
		if err := t.writeNode(rightID, rn); err != nil {
			return Entry{}, 0, false, err
		}
		if err := t.writeNode(id, n); err != nil {
			return Entry{}, 0, false, err
		}
		return rn.entries[0], rightID, true, nil
	}
	ci := childIndex(n.entries, e)
	sep, right, grew, err = t.insert(n.children[ci], depth+1, e)
	if err != nil || !grew {
		return Entry{}, 0, false, err
	}
	n.entries = append(n.entries, Entry{})
	copy(n.entries[ci+1:], n.entries[ci:])
	n.entries[ci] = sep
	n.children = append(n.children, 0)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.entries) <= t.intCap {
		return Entry{}, 0, false, t.writeNode(id, n)
	}
	// Split internal node: middle separator moves up.
	mid := len(n.entries) / 2
	up := n.entries[mid]
	rightID, err := t.pager.Alloc()
	if err != nil {
		return Entry{}, 0, false, err
	}
	rn := &node{
		kind:     kindInternal,
		entries:  append([]Entry(nil), n.entries[mid+1:]...),
		children: append([]disk.PageID(nil), n.children[mid+1:]...),
	}
	n.entries = n.entries[:mid]
	n.children = n.children[:mid+1]
	if err := t.writeNode(rightID, rn); err != nil {
		return Entry{}, 0, false, err
	}
	if err := t.writeNode(id, n); err != nil {
		return Entry{}, 0, false, err
	}
	return up, rightID, true, nil
}

// Delete removes (key, val), rebalancing by borrowing or merging.
func (t *Tree) Delete(key int64, val uint64) error {
	found, _, err := t.del(t.root, Entry{Key: key, Val: val})
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: (%d,%d)", ErrNotFound, key, val)
	}
	// Collapse a root that has become a single-child internal node.
	for t.height > 0 {
		rn, err := t.readNode(t.root)
		if err != nil {
			return err
		}
		if rn.kind != kindInternal || len(rn.entries) > 0 {
			break
		}
		old := t.root
		t.root = rn.children[0]
		t.height--
		if err := t.pager.Free(old); err != nil {
			return err
		}
	}
	t.size--
	return nil
}

func (t *Tree) minLeaf() int { return t.leafCap / 2 }
func (t *Tree) minInt() int  { return t.intCap / 2 }

// del removes e from the subtree at id; underflow reports whether the node
// dropped below its minimum (the parent then rebalances it).
func (t *Tree) del(id disk.PageID, e Entry) (found, underflow bool, err error) {
	n, err := t.readNode(id)
	if err != nil {
		return false, false, err
	}
	if n.kind == kindLeaf {
		i := lowerBound(n.entries, e)
		if i >= len(n.entries) || n.entries[i] != e {
			return false, false, nil
		}
		n.entries = append(n.entries[:i], n.entries[i+1:]...)
		if err := t.writeNode(id, n); err != nil {
			return false, false, err
		}
		return true, len(n.entries) < t.minLeaf(), nil
	}
	ci := childIndex(n.entries, e)
	found, under, err := t.del(n.children[ci], e)
	if err != nil || !found || !under {
		return found, false, err
	}
	under, err = t.rebalanceChild(id, n, ci)
	return true, under, err
}

// rebalanceChild restores child ci of internal node n (page id) after an
// underflow, via borrow from a sibling or merge with one. Returns whether n
// itself underflowed.
func (t *Tree) rebalanceChild(id disk.PageID, n *node, ci int) (bool, error) {
	child, err := t.readNode(n.children[ci])
	if err != nil {
		return false, err
	}
	minC := t.minLeaf()
	if child.kind == kindInternal {
		minC = t.minInt()
	}

	// Try borrowing from the left sibling.
	if ci > 0 {
		left, err := t.readNode(n.children[ci-1])
		if err != nil {
			return false, err
		}
		if len(left.entries) > minC {
			if child.kind == kindLeaf {
				last := left.entries[len(left.entries)-1]
				left.entries = left.entries[:len(left.entries)-1]
				child.entries = append([]Entry{last}, child.entries...)
				n.entries[ci-1] = child.entries[0]
			} else {
				// Rotate through the separator.
				child.entries = append([]Entry{n.entries[ci-1]}, child.entries...)
				child.children = append([]disk.PageID{left.children[len(left.children)-1]}, child.children...)
				n.entries[ci-1] = left.entries[len(left.entries)-1]
				left.entries = left.entries[:len(left.entries)-1]
				left.children = left.children[:len(left.children)-1]
			}
			if err := t.writeNode(n.children[ci-1], left); err != nil {
				return false, err
			}
			if err := t.writeNode(n.children[ci], child); err != nil {
				return false, err
			}
			return false, t.writeNode(id, n)
		}
	}
	// Try borrowing from the right sibling.
	if ci < len(n.children)-1 {
		right, err := t.readNode(n.children[ci+1])
		if err != nil {
			return false, err
		}
		if len(right.entries) > minC {
			if child.kind == kindLeaf {
				first := right.entries[0]
				right.entries = right.entries[1:]
				child.entries = append(child.entries, first)
				n.entries[ci] = right.entries[0]
			} else {
				child.entries = append(child.entries, n.entries[ci])
				child.children = append(child.children, right.children[0])
				n.entries[ci] = right.entries[0]
				right.entries = right.entries[1:]
				right.children = right.children[1:]
			}
			if err := t.writeNode(n.children[ci+1], right); err != nil {
				return false, err
			}
			if err := t.writeNode(n.children[ci], child); err != nil {
				return false, err
			}
			return false, t.writeNode(id, n)
		}
	}
	// Merge with a sibling. Normalize so we merge children[mi] <- children[mi+1].
	mi := ci
	if ci == len(n.children)-1 {
		mi = ci - 1
	}
	leftN, err := t.readNode(n.children[mi])
	if err != nil {
		return false, err
	}
	rightN, err := t.readNode(n.children[mi+1])
	if err != nil {
		return false, err
	}
	if leftN.kind == kindLeaf {
		leftN.entries = append(leftN.entries, rightN.entries...)
		leftN.next = rightN.next
	} else {
		leftN.entries = append(leftN.entries, n.entries[mi])
		leftN.entries = append(leftN.entries, rightN.entries...)
		leftN.children = append(leftN.children, rightN.children...)
	}
	if err := t.writeNode(n.children[mi], leftN); err != nil {
		return false, err
	}
	if err := t.pager.Free(n.children[mi+1]); err != nil {
		return false, err
	}
	n.entries = append(n.entries[:mi], n.entries[mi+1:]...)
	n.children = append(n.children[:mi+1], n.children[mi+2:]...)
	if err := t.writeNode(id, n); err != nil {
		return false, err
	}
	return len(n.entries) < t.minInt(), nil
}

// Search returns all values stored under key, in ascending value order, and
// costs O(log_B n + t/B) I/Os.
func (t *Tree) Search(key int64) ([]uint64, error) {
	return t.SearchOn(t.pager, key)
}

// SearchOn is Search reading every page through p — the entry concurrent
// searches take, each through its own op-scoped pager. It must not race
// with Insert or Delete.
func (t *Tree) SearchOn(p disk.Pager, key int64) ([]uint64, error) {
	var out []uint64
	err := t.rangeRaw(p, key, key, func(_ int64, v uint64) bool {
		out = append(out, v)
		return true
	})
	return out, err
}

// Range visits every entry with lo <= key <= hi in ascending order, calling
// fn; fn returns false to stop early. Cost: O(log_B n + t/B) I/Os.
func (t *Tree) Range(lo, hi int64, fn func(key int64, val uint64) bool) error {
	if lo > hi {
		return nil
	}
	return t.rangeRaw(t.pager, lo, hi, fn)
}

// Min returns the smallest entry, or ok=false when empty.
func (t *Tree) Min() (Entry, bool, error) {
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return Entry{}, false, err
		}
		if n.kind == kindLeaf {
			if len(n.entries) == 0 {
				return Entry{}, false, nil
			}
			return n.entries[0], true, nil
		}
		id = n.children[0]
	}
}

// Max returns the largest entry, or ok=false when empty.
func (t *Tree) Max() (Entry, bool, error) {
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return Entry{}, false, err
		}
		if n.kind == kindLeaf {
			if len(n.entries) == 0 {
				return Entry{}, false, nil
			}
			return n.entries[len(n.entries)-1], true, nil
		}
		id = n.children[len(n.children)-1]
	}
}

// All visits every entry in ascending order.
func (t *Tree) All(fn func(key int64, val uint64) bool) error {
	return t.Range(math.MinInt64, math.MaxInt64, fn)
}

// Check walks the whole tree validating structural invariants: entry order,
// separator fencing, fill factors, uniform leaf depth, and leaf-chain
// consistency. Used by tests and safe to call any time.
func (t *Tree) Check() error {
	leafDepth := -1
	var prevLeafLast *Entry
	var walk func(id disk.PageID, depth int, lo, hi *Entry) error
	walk = func(id disk.PageID, depth int, lo, hi *Entry) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		for i := 1; i < len(n.entries); i++ {
			if !n.entries[i-1].less(n.entries[i]) {
				return fmt.Errorf("btree: node %d entries out of order at %d", id, i)
			}
		}
		if lo != nil && len(n.entries) > 0 && n.entries[0].less(*lo) {
			return fmt.Errorf("btree: node %d violates low fence", id)
		}
		if hi != nil && len(n.entries) > 0 && !n.entries[len(n.entries)-1].less(*hi) {
			return fmt.Errorf("btree: node %d violates high fence", id)
		}
		if n.kind == kindLeaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("btree: leaf %d at depth %d, expected %d", id, depth, leafDepth)
			}
			if id != t.root && len(n.entries) < t.minLeaf() {
				return fmt.Errorf("btree: leaf %d underfull (%d)", id, len(n.entries))
			}
			if prevLeafLast != nil && len(n.entries) > 0 && !prevLeafLast.less(n.entries[0]) {
				return fmt.Errorf("btree: leaf chain out of order at %d", id)
			}
			if len(n.entries) > 0 {
				last := n.entries[len(n.entries)-1]
				prevLeafLast = &last
			}
			return nil
		}
		if id != t.root && len(n.entries) < t.minInt() {
			return fmt.Errorf("btree: internal %d underfull (%d)", id, len(n.entries))
		}
		for i, c := range n.children {
			var clo, chi *Entry
			if i > 0 {
				clo = &n.entries[i-1]
			} else {
				clo = lo
			}
			if i < len(n.entries) {
				chi = &n.entries[i]
			} else {
				chi = hi
			}
			if err := walk(c, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 0, nil, nil)
}

func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
func put16(b []byte, v uint16) { b[0], b[1] = byte(v), byte(v>>8) }
func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// BulkLoad builds a tree bottom-up from entries, packing leaves to about 90%
// fill — the standard fast path for loading sorted data, costing O(n/B)
// writes instead of n·O(log_B n). Entries are sorted internally if needed;
// duplicate (Key, Val) pairs are rejected.
func BulkLoad(p disk.Pager, entries []Entry) (*Tree, error) {
	t, err := New(p)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return t, nil
	}
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool { return es[i].less(es[j]) })
	for i := 1; i < len(es); i++ {
		if es[i] == es[i-1] {
			return nil, fmt.Errorf("btree: duplicate entry (%d,%d)", es[i].Key, es[i].Val)
		}
	}
	// The fresh empty root leaf is replaced wholesale.
	if err := p.Free(t.root); err != nil {
		return nil, err
	}

	type levelNode struct {
		id    disk.PageID
		first Entry
	}
	// Leaves: ~90% fill, with the last two groups rebalanced so no leaf
	// falls below the deletion minimum.
	sizes := packSizes(len(es), t.leafCap*9/10, t.minLeaf())
	var level []levelNode
	var prevLeaf disk.PageID = disk.InvalidPage
	var prevNode *node
	off := 0
	for _, sz := range sizes {
		id, err := p.Alloc()
		if err != nil {
			return nil, err
		}
		if prevNode != nil {
			prevNode.next = id
			if err := t.writeNode(prevLeaf, prevNode); err != nil {
				return nil, err
			}
		}
		prevLeaf = id
		prevNode = &node{kind: kindLeaf, next: disk.InvalidPage, entries: es[off : off+sz]}
		level = append(level, levelNode{id: id, first: es[off]})
		off += sz
	}
	if err := t.writeNode(prevLeaf, prevNode); err != nil {
		return nil, err
	}
	// Internal levels, same rebalanced packing in children.
	height := 0
	for len(level) > 1 {
		var next []levelNode
		sizes := packSizes(len(level), t.intCap*9/10+1, t.minInt()+1)
		off := 0
		for _, sz := range sizes {
			group := level[off : off+sz]
			off += sz
			id, err := p.Alloc()
			if err != nil {
				return nil, err
			}
			n := &node{kind: kindInternal, children: make([]disk.PageID, 0, len(group))}
			for gi, ln := range group {
				n.children = append(n.children, ln.id)
				if gi > 0 {
					n.entries = append(n.entries, ln.first)
				}
			}
			if err := t.writeNode(id, n); err != nil {
				return nil, err
			}
			next = append(next, levelNode{id: id, first: group[0].first})
		}
		level = next
		height++
	}
	t.root = level[0].id
	t.height = height
	t.size = len(es)
	return t, nil
}

// packSizes splits n items into groups of at most max, each at least min
// (except a lone group smaller than min when n < min), by rebalancing the
// final two groups.
func packSizes(n, max, min int) []int {
	if max < 1 {
		max = 1
	}
	if min < 1 {
		min = 1
	}
	if min > max {
		min = max
	}
	var sizes []int
	for remaining := n; remaining > 0; {
		if remaining <= max {
			sizes = append(sizes, remaining)
			break
		}
		sizes = append(sizes, max)
		remaining -= max
	}
	if len(sizes) >= 2 {
		last := sizes[len(sizes)-1]
		if last < min {
			combined := sizes[len(sizes)-2] + last
			sizes[len(sizes)-2] = combined - combined/2
			sizes[len(sizes)-1] = combined / 2
		}
	}
	return sizes
}
