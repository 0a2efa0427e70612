// Package skeletal implements the skeletal B-tree of Section 2 of the paper
// (Figure 2): a static binary search tree whose nodes are packed into disk
// pages so that each page holds a subtree of height Θ(log B). Descending a
// root-to-leaf path of the binary tree then costs O(log_B n) page reads
// instead of O(log n).
//
// Every external structure in this repository (segment tree, priority search
// trees, interval tree) stores its binary tree through this package. Each
// binary node carries a caller-defined fixed-width payload: page references
// to cover-lists, top-B point blocks, caches, and so on.
//
// Pages support two intra-page placement schemes, selected at build time and
// stamped into every page header and the reopen metadata (disk.Layout):
// LayoutSorted packs the subtree's nodes contiguously in BFS order, while
// LayoutEytzinger places each node at its implicit heap slot (root at 0,
// children of slot i at 2i+1 and 2i+2), so the top of every subtree shares
// cache lines across probes. Both layouts use the same subtree height and
// the same page allocation order, so the page-level shape of the tree — and
// therefore every descent's I/O count — is identical across layouts.
package skeletal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pathcache/internal/disk"
)

// BuildNode is an in-memory binary tree node handed to Build. Key is the
// routing key (semantics are up to the caller: an x-coordinate separator for
// priority search trees, an endpoint for segment trees). Payload must be
// exactly the payload size passed to Build.
type BuildNode struct {
	Key     int64
	Payload []byte
	Left    *BuildNode
	Right   *BuildNode
}

// NodeRef addresses a node: the page it lives in and its index within the
// page. The zero NodeRef is not nil; use NilRef.
type NodeRef struct {
	Page disk.PageID
	Idx  uint16
}

// NilRef is the absent-child reference.
var NilRef = NodeRef{Page: disk.InvalidPage}

// Valid reports whether the reference addresses a node.
func (r NodeRef) Valid() bool { return r.Page != disk.InvalidPage }

func (r NodeRef) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Idx) }

// Node is a decoded node. Payload aliases the page buffer of the View it was
// read from; Views are immutable once loaded, so the alias stays valid for
// as long as the View (or a Walker holding it) is reachable.
type Node struct {
	Ref     NodeRef
	Key     int64
	Left    NodeRef
	Right   NodeRef
	Payload []byte
}

// IsLeaf reports whether the node has no children.
func (n Node) IsLeaf() bool { return !n.Left.Valid() && !n.Right.Valid() }

// Fixed per-entry overhead: key(8) + left page(8) + left idx(2) +
// right page(8) + right idx(2).
const entryOverhead = 28

// Page header: node count (uint16) + layout byte. An occupancy bitmap of
// (pageCap+7)/8 bytes follows the header under both layouts: sorted pages
// occupy slots 0..count-1 contiguously, Eytzinger pages occupy the heap
// slots of the nodes present. The bitmap is authoritative — a reference to
// an unoccupied slot is a corruption, not a decode of stale bytes (slot 0
// would otherwise decode child page 0, a valid page ID).
const pageHeader = 3

// bitmapLen is the occupancy bitmap size for a page holding up to cap nodes.
func bitmapLen(cap int) int { return (cap + 7) / 8 }

// fitSubHeight returns the largest subtree height h such that a full binary
// subtree of height h — header, occupancy bitmap and (2^h - 1) entries —
// fits in pageSize, or 0 when not even a single node fits. The height is
// layout independent by construction, which is what makes the two layouts'
// page shapes (and I/O counts) identical.
func fitSubHeight(pageSize, entry int) int {
	h := 0
	for {
		cap := (1 << (h + 1)) - 1
		if pageHeader+bitmapLen(cap)+cap*entry > pageSize {
			return h
		}
		h++
	}
}

// Tree is a skeletal tree persisted to a pager.
type Tree struct {
	pager       disk.Pager
	payloadSize int
	entrySize   int
	pageCap     int // slots per page: 2^subHeight - 1
	subHeight   int // height of the subtree packed per page
	entryBase   int // offset of slot 0: pageHeader + bitmap
	layout      disk.Layout
	root        NodeRef
	numNodes    int
	numPages    int
	height      int // height of the logical binary tree (edges on longest path)
	pages       []disk.PageID
}

// Build persists the binary tree rooted at root under LayoutSorted, packing
// height-subHeight subtrees into pages. payloadSize is the fixed width of
// every node payload.
func Build(p disk.Pager, root *BuildNode, payloadSize int) (*Tree, error) {
	return BuildLayout(p, root, payloadSize, disk.LayoutSorted)
}

// BuildLayout is Build with an explicit intra-page layout scheme.
func BuildLayout(p disk.Pager, root *BuildNode, payloadSize int, layout disk.Layout) (*Tree, error) {
	if payloadSize < 0 {
		return nil, errors.New("skeletal: negative payload size")
	}
	if !layout.Valid() {
		return nil, fmt.Errorf("skeletal: unknown layout %d", layout)
	}
	entry := entryOverhead + payloadSize
	h := fitSubHeight(p.PageSize(), entry)
	if h < 1 {
		return nil, fmt.Errorf("skeletal: payload %d too large for page %d", payloadSize, p.PageSize())
	}
	cap := (1 << h) - 1
	t := &Tree{
		pager:       p,
		payloadSize: payloadSize,
		entrySize:   entry,
		pageCap:     cap,
		subHeight:   h,
		entryBase:   pageHeader + bitmapLen(cap),
		layout:      layout,
	}
	if root == nil {
		t.root = NilRef
		return t, nil
	}
	ref, err := t.writeSub(root)
	if err != nil {
		return nil, err
	}
	t.root = ref
	t.height = measureHeight(root)
	return t, nil
}

func measureHeight(n *BuildNode) int {
	if n == nil {
		return -1
	}
	l, r := measureHeight(n.Left), measureHeight(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// writeSub packs the top height-subHeight levels of the subtree rooted at n
// into one page, recursing for the frontier children, and returns n's ref.
// The node set per page and the recursion (hence allocation) order are the
// same under both layouts; only the slot each node lands in differs.
func (t *Tree) writeSub(n *BuildNode) (NodeRef, error) {
	page, err := t.pager.Alloc()
	if err != nil {
		return NilRef, err
	}
	t.numPages++
	t.pages = append(t.pages, page)

	// BFS-collect up to subHeight levels. slot is the heap position within
	// the page's implicit subtree; sorted pages compact to BFS order while
	// Eytzinger pages keep the heap slot (holes stay unoccupied).
	type qent struct {
		n     *BuildNode
		depth int
		slot  int
	}
	type placed struct {
		n   *BuildNode
		idx int
	}
	var nodes []placed
	idxOf := make(map[*BuildNode]uint16)
	queue := []qent{{n, 0, 0}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		idx := len(nodes)
		if t.layout == disk.LayoutEytzinger {
			idx = e.slot
		}
		idxOf[e.n] = uint16(idx)
		nodes = append(nodes, placed{e.n, idx})
		if e.depth+1 < t.subHeight {
			if e.n.Left != nil {
				queue = append(queue, qent{e.n.Left, e.depth + 1, 2*e.slot + 1})
			}
			if e.n.Right != nil {
				queue = append(queue, qent{e.n.Right, e.depth + 1, 2*e.slot + 2})
			}
		}
	}
	if len(nodes) > t.pageCap {
		return NilRef, fmt.Errorf("skeletal: internal error: %d nodes > page cap %d", len(nodes), t.pageCap)
	}

	childRef := func(c *BuildNode) (NodeRef, error) {
		if c == nil {
			return NilRef, nil
		}
		if idx, ok := idxOf[c]; ok {
			return NodeRef{Page: page, Idx: idx}, nil
		}
		return t.writeSub(c)
	}

	buf := make([]byte, t.pager.PageSize())
	binary.LittleEndian.PutUint16(buf[0:2], uint16(len(nodes)))
	buf[2] = byte(t.layout)
	bitmap := buf[pageHeader:t.entryBase]
	for _, pl := range nodes {
		bn := pl.n
		if len(bn.Payload) != t.payloadSize {
			return NilRef, fmt.Errorf("skeletal: node payload %d bytes, want %d", len(bn.Payload), t.payloadSize)
		}
		l, err := childRef(bn.Left)
		if err != nil {
			return NilRef, err
		}
		r, err := childRef(bn.Right)
		if err != nil {
			return NilRef, err
		}
		bitmap[pl.idx/8] |= 1 << (pl.idx % 8)
		off := t.entryBase + pl.idx*t.entrySize
		binary.LittleEndian.PutUint64(buf[off:], uint64(bn.Key))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(l.Page))
		binary.LittleEndian.PutUint16(buf[off+16:], l.Idx)
		binary.LittleEndian.PutUint64(buf[off+18:], uint64(r.Page))
		binary.LittleEndian.PutUint16(buf[off+26:], r.Idx)
		copy(buf[off+entryOverhead:off+t.entrySize], bn.Payload)
	}
	if err := t.pager.Write(page, buf); err != nil {
		return NilRef, err
	}
	t.numNodes += len(nodes)
	return NodeRef{Page: page, Idx: 0}, nil
}

// WithPager returns a read-only view of the tree whose page reads go
// through p instead of the pager the tree was built with. The view shares
// the immutable structure (node layout, page table); it exists so that
// concurrent operations can each route their I/O through a per-operation
// counted pager (disk.WithCounter) for exact attribution.
func (t *Tree) WithPager(p disk.Pager) *Tree {
	c := *t
	c.pager = p
	return &c
}

// Root returns the root reference (NilRef for an empty tree).
func (t *Tree) Root() NodeRef { return t.root }

// NumNodes reports the number of binary nodes.
func (t *Tree) NumNodes() int { return t.numNodes }

// NumPages reports the number of pages occupied by the skeleton itself.
func (t *Tree) NumPages() int { return t.numPages }

// Height reports the height (longest root-to-leaf edge count) of the logical
// binary tree.
func (t *Tree) Height() int { return t.height }

// SubHeight reports the subtree height packed per page (the Θ(log B) of the
// construction).
func (t *Tree) SubHeight() int { return t.subHeight }

// PayloadSize reports the fixed node payload width.
func (t *Tree) PayloadSize() int { return t.payloadSize }

// Layout reports the intra-page placement scheme the tree was built with.
func (t *Tree) Layout() disk.Layout { return t.layout }

// Meta is the handful of values needed to reopen a persisted skeletal tree.
type Meta struct {
	Root        NodeRef
	PayloadSize int
	SubHeight   int
	NumNodes    int
	NumPages    int
	Height      int
	Layout      disk.Layout
}

// Meta returns the tree's reopen metadata.
func (t *Tree) Meta() Meta {
	return Meta{
		Root:        t.root,
		PayloadSize: t.payloadSize,
		SubHeight:   t.subHeight,
		NumNodes:    t.numNodes,
		NumPages:    t.numPages,
		Height:      t.height,
		Layout:      t.layout,
	}
}

// metaSize is the encoded size of Meta.
const metaSize = 8 + 2 + 5*4 + 1

// Append serializes the meta after buf.
func (m Meta) Append(buf []byte) []byte {
	var tmp [metaSize]byte
	binary.LittleEndian.PutUint64(tmp[0:], uint64(m.Root.Page))
	binary.LittleEndian.PutUint16(tmp[8:], m.Root.Idx)
	binary.LittleEndian.PutUint32(tmp[10:], uint32(m.PayloadSize))
	binary.LittleEndian.PutUint32(tmp[14:], uint32(m.SubHeight))
	binary.LittleEndian.PutUint32(tmp[18:], uint32(m.NumNodes))
	binary.LittleEndian.PutUint32(tmp[22:], uint32(m.NumPages))
	binary.LittleEndian.PutUint32(tmp[26:], uint32(m.Height))
	tmp[30] = byte(m.Layout)
	return append(buf, tmp[:]...)
}

// DecodeMeta reads a Meta from the front of buf, returning the remainder.
func DecodeMeta(buf []byte) (Meta, []byte, error) {
	if len(buf) < metaSize {
		return Meta{}, nil, errors.New("skeletal: truncated meta")
	}
	layout, err := disk.CheckLayout(buf[30])
	if err != nil {
		return Meta{}, nil, fmt.Errorf("skeletal: meta: %w", err)
	}
	m := Meta{
		Root: NodeRef{
			Page: disk.PageID(binary.LittleEndian.Uint64(buf[0:])),
			Idx:  binary.LittleEndian.Uint16(buf[8:]),
		},
		PayloadSize: int(int32(binary.LittleEndian.Uint32(buf[10:]))),
		SubHeight:   int(int32(binary.LittleEndian.Uint32(buf[14:]))),
		NumNodes:    int(int32(binary.LittleEndian.Uint32(buf[18:]))),
		NumPages:    int(int32(binary.LittleEndian.Uint32(buf[22:]))),
		Height:      int(int32(binary.LittleEndian.Uint32(buf[26:]))),
		Layout:      layout,
	}
	return m, buf[metaSize:], nil
}

// Reopen attaches to a previously persisted skeletal tree. The reopened
// tree supports all read operations; Free is not supported (the page list
// is not reconstructed).
func Reopen(p disk.Pager, m Meta) (*Tree, error) {
	if m.PayloadSize < 0 {
		return nil, errors.New("skeletal: negative payload size in meta")
	}
	if !m.Layout.Valid() {
		return nil, fmt.Errorf("skeletal: unknown layout %d in meta", m.Layout)
	}
	entry := entryOverhead + m.PayloadSize
	if fitSubHeight(p.PageSize(), entry) < 1 {
		return nil, fmt.Errorf("skeletal: payload %d too large for page %d", m.PayloadSize, p.PageSize())
	}
	// The sub-height bounds every slot computation (page capacity, bitmap
	// width, entry offsets), so an out-of-range value from a corrupt meta
	// must be rejected here, before any page is decoded against it. Build
	// always records exactly fitSubHeight, so anything else is corruption.
	if m.SubHeight < 1 || m.SubHeight > fitSubHeight(p.PageSize(), entry) {
		return nil, fmt.Errorf("skeletal: sub-height %d out of range for page size %d: %w",
			m.SubHeight, p.PageSize(), disk.ErrCorrupt)
	}
	if m.NumNodes < 0 || m.NumPages < 0 || m.Height < -1 {
		return nil, fmt.Errorf("skeletal: negative counters in meta: %w", disk.ErrCorrupt)
	}
	cap := (1 << m.SubHeight) - 1
	return &Tree{
		pager:       p,
		payloadSize: m.PayloadSize,
		entrySize:   entry,
		pageCap:     cap,
		subHeight:   m.SubHeight,
		entryBase:   pageHeader + bitmapLen(cap),
		layout:      m.Layout,
		root:        m.Root,
		numNodes:    m.NumNodes,
		numPages:    m.NumPages,
		height:      m.Height,
	}, nil
}

// Free releases every page of the skeleton. The tree must not be used
// afterwards. Node payload chains are the caller's to free first.
func (t *Tree) Free() error {
	for _, id := range t.pages {
		if err := t.pager.Free(id); err != nil {
			return err
		}
	}
	t.pages = nil
	t.root = NilRef
	t.numPages = 0
	return nil
}

// View is one page read into memory. Navigating nodes inside a View is free;
// only loading the View costs an I/O. The buffer is private to the View and
// immutable after the load, so decoded payload aliases survive pool eviction
// of the underlying page (for a walker's views: until the walker is
// released).
type View struct {
	t    *Tree
	page disk.PageID
	buf  []byte
}

// LoadPage reads one page (one I/O) and returns a View over it.
func (t *Tree) LoadPage(id disk.PageID) (*View, error) {
	buf := make([]byte, t.pager.PageSize())
	if err := t.pager.Read(id, buf); err != nil {
		return nil, err
	}
	return &View{t: t, page: id, buf: buf}, nil
}

// Page reports which page this view holds.
func (v *View) Page() disk.PageID { return v.page }

// Node decodes the node at idx. The payload aliases the view's buffer. The
// header is validated before any slot bytes are trusted: a bad layout byte,
// an impossible count or a reference into an unoccupied slot all fail with
// an error wrapping disk.ErrCorrupt.
func (v *View) Node(idx uint16) (Node, error) {
	n := int(binary.LittleEndian.Uint16(v.buf[0:2]))
	if n > v.t.pageCap {
		return Node{}, fmt.Errorf("skeletal: page %d count %d exceeds capacity %d: %w", v.page, n, v.t.pageCap, disk.ErrCorrupt)
	}
	if _, err := disk.CheckLayout(v.buf[2]); err != nil {
		return Node{}, fmt.Errorf("skeletal: page %d: %w", v.page, err)
	}
	if int(idx) >= v.t.pageCap {
		return Node{}, fmt.Errorf("skeletal: node %d out of range (page %d holds %d slots): %w", idx, v.page, v.t.pageCap, disk.ErrCorrupt)
	}
	if v.buf[pageHeader+int(idx)/8]&(1<<(idx%8)) == 0 {
		return Node{}, fmt.Errorf("skeletal: node %d of page %d is unoccupied: %w", idx, v.page, disk.ErrCorrupt)
	}
	off := v.t.entryBase + int(idx)*v.t.entrySize
	return Node{
		Ref: NodeRef{Page: v.page, Idx: idx},
		Key: int64(binary.LittleEndian.Uint64(v.buf[off:])),
		Left: NodeRef{
			Page: disk.PageID(binary.LittleEndian.Uint64(v.buf[off+8:])),
			Idx:  binary.LittleEndian.Uint16(v.buf[off+16:]),
		},
		Right: NodeRef{
			Page: disk.PageID(binary.LittleEndian.Uint64(v.buf[off+18:])),
			Idx:  binary.LittleEndian.Uint16(v.buf[off+26:]),
		},
		Payload: v.buf[off+entryOverhead : off+v.t.entrySize],
	}, nil
}

// pagePrefetcher is the optional extension a pager can implement to accept
// prefetch hints (engine's prefetch-enabled op pagers do). Hints are
// background pool fills: they never touch the issuing operation's counters.
type pagePrefetcher interface {
	Prefetch(disk.PageID)
}

// Walker navigates the tree during one logical operation (one query), caching
// every page it has loaded so far. This models the standard working-memory
// assumption of the I/O model: a query holds the O(log_B n) pages of its
// search path in memory and never pays twice for the same page. Page reads
// go through the walker's pager, which counts them.
//
// The loaded pages live in a short slice — a query holds a handful — in
// page buffers drawn from disk.GetPageBuf. Release hands them back; a
// walker that is never released leaves them to the collector. Node
// payloads alias those buffers, so they stay valid until Release (DESIGN
// §14's view lifetime rule).
type Walker struct {
	t     *Tree
	p     disk.Pager
	views []walkView
	pf    pagePrefetcher
}

// walkView is one loaded page and the pooled buffer that holds it.
type walkView struct {
	View
	bp *[]byte
}

// NewWalker starts a fresh walker with an empty page cache, reading through
// the tree's own pager.
func (t *Tree) NewWalker() *Walker {
	w := new(Walker)
	w.Reset(t, t.pager)
	return w
}

// Reset releases the walker's pages and rebinds it to tree t, reading
// through p — so one walker, kept in an operation's scratch area, serves
// operation after operation, each with its own op-scoped pager.
func (w *Walker) Reset(t *Tree, p disk.Pager) {
	w.Release()
	w.t, w.p = t, p
	w.pf, _ = p.(pagePrefetcher)
}

// Release returns every loaded page buffer to the pool and empties the
// walker's page cache. Nodes and payloads the walker handed out must not be
// used afterwards.
func (w *Walker) Release() {
	for i := range w.views {
		disk.PutPageBuf(w.views[i].bp)
		w.views[i] = walkView{}
	}
	w.views = w.views[:0]
	w.t, w.p, w.pf = nil, nil, nil
}

// view returns the view of page id, reading the page on first use. The
// scan runs newest first: a descent keeps revisiting the page it just
// loaded. A whole-tree walk (Points, Destroy) holds every skeleton page and
// pays a scan per node, which stays small next to its page reads.
func (w *Walker) view(id disk.PageID) (*View, error) {
	for i := len(w.views) - 1; i >= 0; i-- {
		if w.views[i].page == id {
			return &w.views[i].View, nil
		}
	}
	bp := disk.GetPageBuf(w.p.PageSize())
	if err := w.p.Read(id, *bp); err != nil {
		disk.PutPageBuf(bp)
		return nil, err
	}
	w.views = append(w.views, walkView{View: View{t: w.t, page: id, buf: *bp}, bp: bp})
	return &w.views[len(w.views)-1].View, nil
}

// Node loads the node addressed by ref, reading its page only if this walker
// has not seen it yet. When the pager accepts prefetch hints, the node's
// external children are enqueued as soon as the node is decoded, so the pool
// warms the next level of the path while the caller is still deciding which
// way to descend.
func (w *Walker) Node(ref NodeRef) (Node, error) {
	if !ref.Valid() {
		return Node{}, errors.New("skeletal: walk to nil reference")
	}
	v, err := w.view(ref.Page)
	if err != nil {
		return Node{}, err
	}
	n, err := v.Node(ref.Idx)
	if err != nil {
		return Node{}, err
	}
	if w.pf != nil {
		if n.Left.Valid() && n.Left.Page != ref.Page {
			w.pf.Prefetch(n.Left.Page)
		}
		if n.Right.Valid() && n.Right.Page != ref.Page {
			w.pf.Prefetch(n.Right.Page)
		}
	}
	return n, nil
}

// PagesLoaded reports how many distinct pages the walker has read.
func (w *Walker) PagesLoaded() int { return len(w.views) }

// Dir is a descent decision.
type Dir int

// Descent decisions returned by a chooser.
const (
	Stop Dir = iota
	Left
	Right
)

// Descend walks from the root, calling choose at each node to pick a
// direction, and returns the visited path. Payloads alias the walker's page
// views — zero copies per node; the views stay reachable through the
// returned nodes, so the aliases are safe to retain. The walk stops when
// choose returns Stop, or when the chosen child is absent. The I/O cost is
// one read per distinct page on the path: O(log_B n).
func (t *Tree) Descend(choose func(n Node) Dir) ([]Node, error) {
	if !t.root.Valid() {
		return nil, nil
	}
	return t.NewWalker().Descend(t.root, choose)
}

// Descend walks from ref using this walker's page cache, so a query that
// continues navigating after the descent does not pay again for path pages.
// Semantics match Tree.Descend.
func (w *Walker) Descend(ref NodeRef, choose func(n Node) Dir) ([]Node, error) {
	return w.AppendDescent(nil, ref, choose)
}

// AppendDescent is Descend appending the visited path to path, so an
// operation can reuse one path slice across queries.
func (w *Walker) AppendDescent(path []Node, ref NodeRef, choose func(n Node) Dir) ([]Node, error) {
	for ref.Valid() {
		n, err := w.Node(ref)
		if err != nil {
			return nil, err
		}
		path = append(path, n)
		switch choose(n) {
		case Left:
			ref = n.Left
		case Right:
			ref = n.Right
		default:
			return path, nil
		}
	}
	return path, nil
}
