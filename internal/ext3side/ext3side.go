// Package ext3side implements an external priority search tree for 3-sided
// queries {a1 <= x <= a2, y >= b} — the problem of Theorems 3.3/4.5, which
// the paper motivates with indexing class hierarchies in object-oriented
// databases [KRV].
//
// The extended abstract states the 3-sided bounds but defers the
// construction to a full version that detailed it differently; this package
// implements the natural two-corner rendition (documented as deviation 1 in
// DESIGN.md):
//
//   - The query splits at the fork node, the deepest node whose x-split
//     lies inside [a1, a2]. Fork-path ancestors are served from per-chunk
//     AY caches (all chunk-ancestor points, y-descending): a scan reports
//     while y >= b with an x-window filter.
//   - Below the fork, the a1 side runs the 2-sided machinery of Theorem 3.2
//     with x-descending ancestor caches (AXD) and right-sibling caches (RS);
//     the a2 side runs its mirror image (AXA, LS). Chunks that would cross
//     the fork fall back to direct block reads — at most one chunk (log B
//     blocks) per side.
//
// Measured query cost is O(log_B n + t/B) on all benchmark workloads; the
// worst case is O(log_B n + log B + t/B + w/B) where w counts fork-ancestor
// points above b but outside the x-window — matching the [KRV] baseline
// bound even when the deviation terms bite. Storage is O((n/B)·log B)
// pages, under the paper's O((n/B)·log^2 B) budget.
package ext3side

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pathcache/internal/disk"
	"pathcache/internal/pstcore"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// Node payload layout (96 bytes):
//
//	0   blockHead/blockCount   this node's top-B points (y-descending)
//	12  minY       int64
//	20  leftMinY   int64   (MinInt64 when the child is absent)
//	28  rightMinY  int64
//	36  ayHead/ayCount    chunk ancestors, y-descending
//	48  axdHead/axdCount  chunk ancestors, x-descending
//	60  axaHead/axaCount  chunk ancestors, x-ascending
//	72  rsHead/rsCount    right-hanging chunk siblings, y-descending
//	84  lsHead/lsCount    left-hanging chunk siblings, y-descending
const payloadSize = 96

// List offsets within the payload.
const (
	offBlock = 0
	offAY    = 36
	offAXD   = 48
	offAXA   = 60
	offRS    = 72
	offLS    = 84
)

// Tree is a static external 3-sided search structure.
type Tree struct {
	pager  disk.Pager
	skel   *skeletal.Tree
	b      int
	segLen int
	n      int

	blockPages int
	cachePages int
}

// Build constructs the structure over pts. The input slice is not retained
// or modified.
func Build(p disk.Pager, pts []record.Point) (*Tree, error) {
	b := disk.ChainCap(p.PageSize(), record.PointSize)
	if b < 2 {
		return nil, fmt.Errorf("ext3side: page size %d holds %d points; need >= 2", p.PageSize(), b)
	}
	t := &Tree{pager: p, b: b, n: len(pts)}
	t.segLen = bits.Len(uint(b)) - 1
	if t.segLen < 1 {
		t.segLen = 1
	}
	root := pstcore.Build(pstcore.SortedAsc(pts), b)
	bn, err := (&cacheBuilder{t: t}).persist(root, 0)
	if err != nil {
		return nil, err
	}
	skel, err := skeletal.Build(p, bn, payloadSize)
	if err != nil {
		return nil, err
	}
	t.skel = skel
	return t, nil
}

func (t *Tree) chunkStart(depth int) int {
	return (depth / t.segLen) * t.segLen
}

// cacheBuilder carries persist's state along the DFS path. For each depth
// d on the current path it holds the runs the caches below merge: that
// node's block y-descending as built (ay), re-sorted x-descending (axd)
// and x-ascending (axa), and the block of the right (rs) or left (ls)
// sibling the path passed there (nil when the path went the other way).
// merger holds the buffers every cache list is merged in.
type cacheBuilder struct {
	t                    *Tree
	ay, axd, axa, rs, ls [][]record.Point
	merger               pstcore.Merger
}

// persist writes node chains depth-first. Each of a node's five caches is
// the merge of its chunk path's runs, each already in order, so no list is
// sorted whole and none outlives its write.
func (cb *cacheBuilder) persist(n *pstcore.MemNode, depth int) (*skeletal.BuildNode, error) {
	if n == nil {
		return nil, nil
	}
	t := cb.t
	blockHead, pages, err := pstcore.WritePoints(t.pager, n.Pts)
	if err != nil {
		return nil, err
	}
	t.blockPages += pages

	payload := make([]byte, payloadSize)
	binary.LittleEndian.PutUint64(payload[offBlock:], uint64(blockHead))
	binary.LittleEndian.PutUint32(payload[offBlock+8:], uint32(len(n.Pts)))
	binary.LittleEndian.PutUint64(payload[12:], uint64(n.MinY))
	putChildMinY(payload[20:], n.Left)
	putChildMinY(payload[28:], n.Right)
	cs := t.chunkStart(depth)
	for _, l := range []struct {
		off  int
		runs [][]record.Point
		cmp  func(p, q record.Point) int
	}{
		{offAY, cb.ay[cs:depth], record.CmpYDesc},
		{offAXD, cb.axd[cs:depth], record.CmpXDesc},
		{offAXA, cb.axa[cs:depth], record.CmpXAsc},
		{offRS, cb.rs[cs:depth], record.CmpYDesc},
		{offLS, cb.ls[cs:depth], record.CmpYDesc},
	} {
		if err := t.writeCache(payload[l.off:], cb.merger.Merge(l.runs, l.cmp)); err != nil {
			return nil, err
		}
	}

	bn := &skeletal.BuildNode{Key: n.Split, Payload: payload}
	if n.Left == nil && n.Right == nil {
		return bn, nil
	}
	for len(cb.ay) <= depth {
		cb.ay = append(cb.ay, nil)
		cb.axd = append(cb.axd, nil)
		cb.axa = append(cb.axa, nil)
		cb.rs = append(cb.rs, nil)
		cb.ls = append(cb.ls, nil)
	}
	cb.ay[depth] = n.Pts
	if t.chunkStart(depth+1) <= depth {
		cb.axd[depth] = append(cb.axd[depth][:0], n.Pts...)
		slices.SortFunc(cb.axd[depth], record.CmpXDesc)
		cb.axa[depth] = append(cb.axa[depth][:0], n.Pts...)
		slices.SortFunc(cb.axa[depth], record.CmpXAsc)
	}
	if n.Left != nil {
		// Path goes left: the right child is a right-hanging sibling.
		cb.rs[depth], cb.ls[depth] = nil, nil
		if n.Right != nil {
			cb.rs[depth] = n.Right.Pts
		}
		bn.Left, err = cb.persist(n.Left, depth+1)
		if err != nil {
			return nil, err
		}
	}
	if n.Right != nil {
		// Path goes right: the left child is a left-hanging sibling.
		cb.rs[depth], cb.ls[depth] = nil, nil
		if n.Left != nil {
			cb.ls[depth] = n.Left.Pts
		}
		bn.Right, err = cb.persist(n.Right, depth+1)
		if err != nil {
			return nil, err
		}
	}
	return bn, nil
}

func (t *Tree) writeCache(buf []byte, pts []record.Point) error {
	head, pages, err := pstcore.WritePoints(t.pager, pts)
	if err != nil {
		return err
	}
	t.cachePages += pages
	binary.LittleEndian.PutUint64(buf[0:8], uint64(head))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(pts)))
	return nil
}

func putChildMinY(buf []byte, c *pstcore.MemNode) {
	v := int64(math.MinInt64)
	if c != nil {
		v = c.MinY
	}
	binary.LittleEndian.PutUint64(buf, uint64(v))
}

func plList(p []byte, off int) (disk.PageID, int) {
	return disk.PageID(binary.LittleEndian.Uint64(p[off:])), int(binary.LittleEndian.Uint32(p[off+8:]))
}
func plMinY(p []byte) int64      { return int64(binary.LittleEndian.Uint64(p[12:])) }
func plLeftMinY(p []byte) int64  { return int64(binary.LittleEndian.Uint64(p[20:])) }
func plRightMinY(p []byte) int64 { return int64(binary.LittleEndian.Uint64(p[28:])) }

// Len reports the number of indexed points.
func (t *Tree) Len() int { return t.n }

// B reports the page capacity in points.
func (t *Tree) B() int { return t.b }

// Height reports the binary tree height.
func (t *Tree) Height() int { return t.skel.Height() }

// SpacePages breaks down storage: skeleton, point blocks, caches.
func (t *Tree) SpacePages() (skeleton, blocks, caches int) {
	return t.skel.NumPages(), t.blockPages, t.cachePages
}

// TotalPages is the complete storage footprint in pages.
func (t *Tree) TotalPages() int {
	return t.skel.NumPages() + t.blockPages + t.cachePages
}

// Destroy frees every page the tree owns. Used by the dynamic wrapper's
// rebuilds; the traversal reads are charged like any rebuild I/O.
func (t *Tree) Destroy() error {
	if t.n == 0 {
		if t.skel != nil {
			return t.skel.Free()
		}
		return nil
	}
	w := t.skel.NewWalker()
	var free func(ref skeletal.NodeRef) error
	free = func(ref skeletal.NodeRef) error {
		if !ref.Valid() {
			return nil
		}
		n, err := w.Node(ref)
		if err != nil {
			return err
		}
		left, right := n.Left, n.Right
		for _, off := range []int{offBlock, offAY, offAXD, offAXA, offRS, offLS} {
			if h, c := plList(n.Payload, off); c > 0 {
				if err := disk.FreeChain(t.pager, h); err != nil {
					return err
				}
			}
		}
		if err := free(left); err != nil {
			return err
		}
		return free(right)
	}
	if err := free(t.skel.Root()); err != nil {
		return err
	}
	t.blockPages, t.cachePages, t.n = 0, 0, 0
	return t.skel.Free()
}
