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
// A page packs its subtree's nodes contiguously in BFS order.
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

// Page header: node count (uint16) + layout byte (always 0; see
// disk.CheckLayoutByte). An occupancy bitmap of (pageCap+7)/8 bytes follows
// the header; a page occupies slots 0..count-1. The bitmap is authoritative
// — a reference to an unoccupied slot is a corruption, not a decode of
// stale bytes (slot 0 would otherwise decode child page 0, a valid page ID).
const pageHeader = 3

// bitmapLen is the occupancy bitmap size for a page holding up to cap nodes.
func bitmapLen(cap int) int { return (cap + 7) / 8 }

// fitSubHeight returns the largest subtree height h such that a full binary
// subtree of height h — header, occupancy bitmap and (2^h - 1) entries —
// fits in pageSize, or 0 when not even a single node fits.
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
	root        NodeRef
	numNodes    int
	numPages    int
	height      int // height of the logical binary tree (edges on longest path)
	pages       []disk.PageID
}

// Build persists the binary tree rooted at root, packing height-subHeight
// subtrees into pages. payloadSize is the fixed width of every node payload.
func Build(p disk.Pager, root *BuildNode, payloadSize int) (*Tree, error) {
	if payloadSize < 0 {
		return nil, errors.New("skeletal: negative payload size")
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
func (t *Tree) writeSub(n *BuildNode) (NodeRef, error) {
	page, err := t.pager.Alloc()
	if err != nil {
		return NilRef, err
	}
	t.numPages++
	t.pages = append(t.pages, page)

	// BFS-collect up to subHeight levels; a node's slot is its BFS rank.
	type qent struct {
		n     *BuildNode
		depth int
	}
	var nodes []*BuildNode
	idxOf := make(map[*BuildNode]uint16)
	queue := []qent{{n, 0}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		idxOf[e.n] = uint16(len(nodes))
		nodes = append(nodes, e.n)
		if e.depth+1 < t.subHeight {
			if e.n.Left != nil {
				queue = append(queue, qent{e.n.Left, e.depth + 1})
			}
			if e.n.Right != nil {
				queue = append(queue, qent{e.n.Right, e.depth + 1})
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
	binary.LittleEndian.PutUint16(buf[0:2], uint16(len(nodes))) // buf[2], the layout byte, stays 0
	bitmap := buf[pageHeader:t.entryBase]
	for idx, bn := range nodes {
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
		bitmap[idx/8] |= 1 << (idx % 8)
		off := t.entryBase + idx*t.entrySize
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

// Meta is the handful of values needed to reopen a persisted skeletal tree.
type Meta struct {
	Root        NodeRef
	PayloadSize int
	SubHeight   int
	NumNodes    int
	NumPages    int
	Height      int
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
	}
}

// Put appends the meta's fields to w: 30 bytes, then the layout byte,
// always 0 (see disk.CheckLayoutByte).
func (m Meta) Put(w *disk.FieldWriter) {
	w.Page(m.Root.Page)
	w.U16(m.Root.Idx)
	w.Int(m.PayloadSize)
	w.Int(m.SubHeight)
	w.Int(m.NumNodes)
	w.Int(m.NumPages)
	w.Int(m.Height)
	w.U8(0) // layout byte
}

// ReadMeta reads a Meta that Put wrote from r; a non-zero layout byte
// fails r with disk.ErrCorrupt.
func ReadMeta(r *disk.FieldReader) Meta {
	m := Meta{
		Root:        NodeRef{Page: r.Page(), Idx: r.U16()},
		PayloadSize: r.Int(),
		SubHeight:   r.Int(),
		NumNodes:    r.Int(),
		NumPages:    r.Int(),
		Height:      r.Int(),
	}
	if err := disk.CheckLayoutByte(r.U8()); err != nil {
		r.Fail(err)
	}
	return m
}

// ReopenEngine is the reopen check every engine built on a skeleton runs
// before attaching to it: the page must hold at least two recSize-byte
// chain records, the meta's node payload must be payloadSize wide (any
// other width is format drift), and the skeleton must reopen. pkg prefixes
// the first two errors. It returns the skeleton and the chain capacity B.
func ReopenEngine(p disk.Pager, m Meta, pkg string, recSize, payloadSize int) (*Tree, int, error) {
	b := disk.ChainCap(p.PageSize(), recSize)
	if b < 2 {
		return nil, 0, fmt.Errorf("%s: page size %d too small", pkg, p.PageSize())
	}
	if m.PayloadSize != payloadSize {
		return nil, 0, fmt.Errorf("%s: payload size %d, want %d (format drift)", pkg, m.PayloadSize, payloadSize)
	}
	t, err := Reopen(p, m)
	if err != nil {
		return nil, 0, err
	}
	return t, b, nil
}

// Reopen attaches to a previously persisted skeletal tree. The reopened
// tree supports all read operations; Free is not supported (the page list
// is not reconstructed).
func Reopen(p disk.Pager, m Meta) (*Tree, error) {
	if m.PayloadSize < 0 {
		return nil, errors.New("skeletal: negative payload size in meta")
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
	if err := disk.CheckLayoutByte(v.buf[2]); err != nil {
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

// QueryStats profiles one path-cached query in the paper's two terms: the
// skeletal pages read to locate the search path (the log_B n search term)
// and the pages read from blocks, lists and caches (the t/B output term).
// Each list page is useful when it returns a full page of reported records
// and wasteful otherwise, per Figure 3's accounting. Every static engine
// reports its queries through this one type.
type QueryStats struct {
	PathPages   int
	ListPages   int
	UsefulIOs   int
	WastefulIOs int
	Results     int
	// Bound, when positive, is the theorem bound in page reads evaluated
	// for the structure the query actually searched. An engine whose shape
	// moves between queries (the LSM tier's levels and tombstones) sets it,
	// and the op is checked against it instead of the kind's bound at a
	// size read before the query ran.
	Bound float64
}

// Account charges one list scan that read pages pages and reported matched
// records, at b records per page.
func (s *QueryStats) Account(pages, matched, b int) {
	s.ListPages += pages
	full := matched / b
	s.UsefulIOs += full
	s.WastefulIOs += pages - full
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
	w.t, w.p = nil, nil
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
// has not seen it yet.
func (w *Walker) Node(ref NodeRef) (Node, error) {
	if !ref.Valid() {
		return Node{}, errors.New("skeletal: walk to nil reference")
	}
	v, err := w.view(ref.Page)
	if err != nil {
		return Node{}, err
	}
	return v.Node(ref.Idx)
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
