// Package dyn3side provides the dynamic 3-sided functionality of
// Theorem 5.2 as a buffered-rebuild structure: a static ext3side tree plus
// a bounded update buffer, rebuilt from a disk-resident point log whenever
// the buffer fills.
//
// The abstract defers Theorem 5.2's construction entirely ("similar ideas
// can be used..."), so this package implements the simplest scheme whose
// measured costs fit the theorem's generous budget (DESIGN.md §4):
//
//   - Queries run the optimal static query plus one scan of the update
//     buffer, whose capacity is B·ceil(log_B n) operations — at most
//     O(log_B n) extra pages, preserving O(log_B n + t/B).
//   - Updates append to the buffer (O(1) page rewrites). A full buffer
//     triggers a rebuild from the point log: O((n/B)·log B) I/Os amortized
//     over B·log_B n updates ≈ O(n·log B / (B²·log_B n)) per update, which
//     stays below Theorem 5.2's O(log_B n·log² B) bound for n up to
//     ~B²·log_B n·log² B (≈10⁹ at B=170, ≈10⁷ at B=20).
package dyn3side

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/ext3side"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// op is one buffered update: kind(1) + pad(7) + point(24).
type op struct {
	insert bool
	p      record.Point
}

const opSize = 32

// Tree is a dynamic 3-sided index. Not safe for concurrent use.
type Tree struct {
	pager disk.Pager
	b     int
	n     int // live points

	main     *ext3side.Tree // nil while empty
	logHead  disk.PageID    // point log backing the main structure
	logCount int

	buf     []op // mirror of the buffer chain
	bufHead disk.PageID
}

// New creates an empty dynamic 3-sided index on p.
func New(p disk.Pager) (*Tree, error) {
	b := disk.ChainCap(p.PageSize(), record.PointSize)
	if b < 2 {
		return nil, fmt.Errorf("dyn3side: page size %d holds %d points; need >= 2", p.PageSize(), b)
	}
	return &Tree{pager: p, b: b, logHead: disk.InvalidPage, bufHead: disk.InvalidPage}, nil
}

// Len reports the number of live points.
func (t *Tree) Len() int { return t.n }

// B reports the page capacity in points.
func (t *Tree) B() int { return t.b }

// bufCap is the buffer capacity in operations: B·ceil(log_B max(n, B)),
// keeping the per-query buffer scan within the optimal search term.
func (t *Tree) bufCap() int {
	lb := 1
	for v := 1; v < t.n || v < t.b; v *= t.b {
		lb++
	}
	return t.b * lb
}

// BulkLoad replaces the tree's entire contents with pts — one build instead
// of n buffered updates. Pending buffered operations are discarded.
func (t *Tree) BulkLoad(pts []record.Point) error {
	t.buf = nil
	if err := t.rewriteBuf(); err != nil {
		return err
	}
	if t.logHead != disk.InvalidPage {
		if err := disk.FreeChain(t.pager, t.logHead); err != nil {
			return err
		}
		t.logHead, t.logCount = disk.InvalidPage, 0
	}
	if t.main != nil {
		if err := t.main.Destroy(); err != nil {
			return err
		}
		t.main = nil
	}
	head, _, err := disk.WriteChain(t.pager, record.PointSize, record.EncodePoints(pts))
	if err != nil {
		return err
	}
	t.logHead, t.logCount = head, len(pts)
	if len(pts) > 0 {
		main, err := ext3side.Build(t.pager, pts)
		if err != nil {
			return err
		}
		t.main = main
	}
	t.n = len(pts)
	return nil
}

// Insert adds a point.
func (t *Tree) Insert(p record.Point) error {
	if err := t.log(op{insert: true, p: p}); err != nil {
		return err
	}
	t.n++
	return nil
}

// Delete removes a point previously inserted with the same (X, Y, ID).
func (t *Tree) Delete(p record.Point) error {
	if err := t.log(op{insert: false, p: p}); err != nil {
		return err
	}
	t.n--
	return nil
}

// log appends an operation to the buffer, rebuilding on overflow.
func (t *Tree) log(o op) error {
	t.buf = append(t.buf, o)
	if err := t.rewriteBuf(); err != nil {
		return err
	}
	if len(t.buf) >= t.bufCap() {
		return t.rebuild()
	}
	return nil
}

// rewriteBuf re-persists the buffer mirror.
func (t *Tree) rewriteBuf() error {
	if t.bufHead != disk.InvalidPage {
		if err := disk.FreeChain(t.pager, t.bufHead); err != nil {
			return err
		}
		t.bufHead = disk.InvalidPage
	}
	if len(t.buf) == 0 {
		return nil
	}
	raw := make([]byte, len(t.buf)*opSize)
	for i, o := range t.buf {
		if o.insert {
			raw[i*opSize] = 1
		}
		o.p.Encode(raw[i*opSize+8:])
	}
	head, _, err := disk.WriteChain(t.pager, opSize, raw)
	if err != nil {
		return err
	}
	t.bufHead = head
	return nil
}

// rebuild folds the buffer into the point log and rebuilds the static tree.
func (t *Tree) rebuild() error {
	// Read the current point log (charged).
	var pts []record.Point
	if t.logHead != disk.InvalidPage {
		if _, err := disk.ScanChain(t.pager, record.PointSize, t.logHead, func(rec []byte) bool {
			pts = append(pts, record.DecodePoint(rec))
			return true
		}); err != nil {
			return err
		}
	}
	// Apply buffered operations in order.
	present := make(map[record.Point]int, len(pts)+len(t.buf))
	for _, p := range pts {
		present[p]++
	}
	for _, o := range t.buf {
		if o.insert {
			present[o.p]++
		} else if present[o.p] > 0 {
			present[o.p]--
		}
	}
	merged := make([]record.Point, 0, len(present))
	for p, c := range present {
		for i := 0; i < c; i++ {
			merged = append(merged, p)
		}
	}
	// Replace log, tree and buffer.
	if t.logHead != disk.InvalidPage {
		if err := disk.FreeChain(t.pager, t.logHead); err != nil {
			return err
		}
		t.logHead = disk.InvalidPage
	}
	if t.main != nil {
		if err := t.main.Destroy(); err != nil {
			return err
		}
		t.main = nil
	}
	head, _, err := disk.WriteChain(t.pager, record.PointSize, record.EncodePoints(merged))
	if err != nil {
		return err
	}
	t.logHead, t.logCount = head, len(merged)
	if len(merged) > 0 {
		main, err := ext3side.Build(t.pager, merged)
		if err != nil {
			return err
		}
		t.main = main
	}
	t.buf = nil
	return t.rewriteBuf()
}

// Query reports every live point with a1 <= x <= a2 and y >= b, merging the
// static answer with the buffered operations (newest wins per point).
func (t *Tree) Query(a1, a2, b int64) ([]record.Point, skeletal.QueryStats, error) {
	var st skeletal.QueryStats
	var listed []record.Point
	if t.main != nil {
		var err error
		listed, st, err = t.main.Query(a1, a2, b)
		if err != nil {
			return nil, st, err
		}
	}
	if len(t.buf) == 0 {
		st.Results = len(listed)
		return listed, st, nil
	}
	// Charge the buffer chain read; the mirror is authoritative.
	if t.bufHead != disk.InvalidPage {
		if _, err := disk.ScanChain(t.pager, opSize, t.bufHead, func([]byte) bool { return true }); err != nil {
			return nil, st, err
		}
	}
	final := make(map[record.Point]bool, len(t.buf))
	for _, o := range t.buf {
		final[o.p] = o.insert
	}
	out := listed[:0]
	for _, p := range listed {
		if _, ok := final[p]; !ok {
			out = append(out, p)
		}
	}
	for p, ins := range final {
		if ins && p.X >= a1 && p.X <= a2 && p.Y >= b {
			out = append(out, p)
		}
	}
	st.Results = len(out)
	return out, st, nil
}

// TotalPages reports the storage footprint when the pager is a *Store.
func (t *Tree) TotalPages() int {
	if s, ok := t.pager.(*disk.Store); ok {
		return s.NumPages()
	}
	return -1
}
