package extpst

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

// PointIndex is the query interface shared by the flat schemes (Tree) and
// the recursive region schemes (Hierarchical).
type PointIndex interface {
	// Query reports every indexed point with x >= a and y >= b, as a
	// slice the caller owns.
	Query(a, b int64) ([]record.Point, skeletal.QueryStats, error)
	// QueryOn is Query reading every page through p — the hook for
	// per-operation I/O attribution: give each concurrent operation its own
	// disk.WithCounter(pager, c) — with its working memory in s. The
	// result may alias s and is valid until s is released.
	QueryOn(p disk.Pager, a, b int64, s *Scratch) ([]record.Point, skeletal.QueryStats, error)
	// Len reports the number of indexed points.
	Len() int
	// TotalPages reports the storage footprint in pages.
	TotalPages() int
}

// Hierarchical is the recursive scheme of Section 4. With two levels it is
// the structure of Theorem 4.3: a top-level priority search tree over
// regions of B·log B points, each region carrying X-, Y-, A- and S-lists
// plus a second-level Basic tree, for O((n/B)·log log B) pages and
// O(log_B n + t/B) queries. More levels shrink the region factor to
// log log B, log log log B, ... giving Theorem 4.4's O((n/B)·log* B) space
// at the cost of an O(log* B) additive query term.
type Hierarchical struct {
	pager  disk.Pager
	b      int
	levels int
	root   PointIndex
	n      int
}

// Region node payload layout (128 bytes):
//
//	0   regionIdx     uint32  index into the level's sub-structure table
//	4   count         uint32  points in this region
//	8   minY          int64
//	16  leftMinY      int64   child region's minY (MinInt64 when absent)
//	24  rightMinY     int64
//	32  xHead1 int64 / 40 xCount1 uint32    first X block (top B by x)
//	44  xHead2 int64 / 52 xCount2 uint32    X tail
//	56  yHead1 int64 / 64 yCount1 uint32    first Y block (top B by y)
//	68  yHead2 int64 / 76 yCount2 uint32    Y tail
//	80  aHead  int64 / 88 aCount  uint32    ancestor cache (x-descending)
//	92  sHead  int64 / 100 sCount uint32    sibling cache (y-descending)
//	104 firstXMin     int64   min x within the first X block
//	112 leftFirstYMin int64   child's first-Y-block min y (MinInt64 absent)
//	120 rightFirstYMin int64
const regionPayloadSize = 128

// regionTree is one level of the hierarchy: a PST over regions.
type regionTree struct {
	pager     disk.Pager
	b         int
	segLen    int
	skel      *skeletal.Tree
	subs      []PointIndex // indexed by regionIdx
	listPages int
	n         int
}

// BuildTwoLevel constructs the Theorem 4.3 structure (two levels).
func BuildTwoLevel(p disk.Pager, pts []record.Point) (*Hierarchical, error) {
	return BuildHierarchical(p, pts, 2)
}

// BuildMultilevel constructs the Theorem 4.4 structure, recursing until the
// region factor bottoms out (log* B levels).
func BuildMultilevel(p disk.Pager, pts []record.Point) (*Hierarchical, error) {
	return BuildHierarchical(p, pts, math.MaxInt32)
}

// BuildHierarchical constructs a scheme with at most `levels` levels:
// levels=1 degenerates to the Basic flat tree, levels=2 is the two-level
// scheme, and higher values recurse with shrinking region factors.
func BuildHierarchical(p disk.Pager, pts []record.Point, levels int) (*Hierarchical, error) {
	if levels < 1 {
		return nil, fmt.Errorf("extpst: levels %d < 1", levels)
	}
	b := disk.ChainCap(p.PageSize(), record.PointSize)
	if b < 2 {
		return nil, fmt.Errorf("extpst: page size %d holds %d points; need >= 2", p.PageSize(), b)
	}
	h := &Hierarchical{pager: p, b: b, levels: levels, n: len(pts)}
	root, err := buildLevel(p, b, pts, 1, levels)
	if err != nil {
		return nil, err
	}
	h.root = root
	return h, nil
}

// iterFactor returns g_level: log B, log log B, ... (floored at 1).
func iterFactor(b, level int) int {
	g := b
	for i := 0; i < level; i++ {
		g = bits.Len(uint(g)) - 1
		if g <= 1 {
			return 1
		}
	}
	return g
}

// buildLevel builds one level of the hierarchy over pts.
func buildLevel(p disk.Pager, b int, pts []record.Point, level, maxLevels int) (PointIndex, error) {
	g := iterFactor(b, level)
	regionCap := b * g
	if level >= maxLevels || g <= 1 || len(pts) <= regionCap {
		return Build(p, pts, Basic)
	}
	rt := &regionTree{pager: p, b: b, n: len(pts)}
	rt.segLen = bits.Len(uint(b)) - 1
	if rt.segLen < 1 {
		rt.segLen = 1
	}
	mem := pstcore.Build(pstcore.SortedAsc(pts), regionCap)
	bn, err := (&regionBuilder{rt: rt}).persistRegion(mem, level, maxLevels, 0)
	if err != nil {
		return nil, err
	}
	skel, err := skeletal.Build(p, bn, regionPayloadSize)
	if err != nil {
		return nil, err
	}
	rt.skel = skel
	return rt, nil
}

// regionBuilder carries persistRegion's state along the DFS path: for
// each depth d on the current path, firstX[d] holds that region's first X
// block and sibs[d] the first Y block of the right sibling the path passed
// there (nil when the path went right). merger holds the buffers every
// region's caches are merged in.
type regionBuilder struct {
	rt           *regionTree
	firstX, sibs [][]record.Point
	merger       pstcore.Merger
}

// persistRegion writes one region node: its X/Y lists, its A/S caches
// (the chunk ancestors' first X blocks merged x-descending, the chunk's
// right siblings' first Y blocks merged y-descending) and its
// sub-structure.
func (rb *regionBuilder) persistRegion(n *pstcore.MemNode, level, maxLevels, depth int) (*skeletal.BuildNode, error) {
	rt := rb.rt
	b := rt.b
	// X ordering.
	byX := slices.Clone(n.Pts)
	slices.SortFunc(byX, record.CmpXDesc)
	fx := firstBlock(byX, b)
	xHead1, pages1, err := pstcore.WritePoints(rt.pager, fx)
	if err != nil {
		return nil, err
	}
	xTail := byX[len(fx):]
	xHead2, pages2, err := pstcore.WritePoints(rt.pager, xTail)
	if err != nil {
		return nil, err
	}
	rt.listPages += pages1 + pages2

	// Y ordering (n.Pts is already y-descending from pstcore.Build).
	fy := firstBlock(n.Pts, b)
	yHead1, pages1, err := pstcore.WritePoints(rt.pager, fy)
	if err != nil {
		return nil, err
	}
	yTail := n.Pts[len(fy):]
	yHead2, pages2, err := pstcore.WritePoints(rt.pager, yTail)
	if err != nil {
		return nil, err
	}
	rt.listPages += pages1 + pages2

	cs := (depth / rt.segLen) * rt.segLen
	a := rb.merger.Merge(rb.firstX[cs:depth], record.CmpXDesc)
	aHead, pagesA, err := pstcore.WritePoints(rt.pager, a)
	if err != nil {
		return nil, err
	}
	aCount := len(a)
	s := rb.merger.Merge(rb.sibs[cs:depth], record.CmpYDesc)
	sHead, pagesS, err := pstcore.WritePoints(rt.pager, s)
	if err != nil {
		return nil, err
	}
	rt.listPages += pagesA + pagesS

	// Sub-structure over this region's points.
	sub, err := buildLevel(rt.pager, b, n.Pts, level+1, maxLevels)
	if err != nil {
		return nil, err
	}
	regionIdx := len(rt.subs)
	rt.subs = append(rt.subs, sub)

	payload := make([]byte, regionPayloadSize)
	binary.LittleEndian.PutUint32(payload[0:], uint32(regionIdx))
	binary.LittleEndian.PutUint32(payload[4:], uint32(len(n.Pts)))
	binary.LittleEndian.PutUint64(payload[8:], uint64(n.MinY))
	putChildMinY(payload[16:], n.Left)
	putChildMinY(payload[24:], n.Right)
	putRegionList(payload[32:], xHead1, len(fx))
	putRegionList(payload[44:], xHead2, len(xTail))
	putRegionList(payload[56:], yHead1, len(fy))
	putRegionList(payload[68:], yHead2, len(yTail))
	putRegionList(payload[80:], aHead, aCount)
	putRegionList(payload[92:], sHead, len(s))
	binary.LittleEndian.PutUint64(payload[104:], uint64(fx[len(fx)-1].X))
	putChildFirstYMin(payload[112:], n.Left, b)
	putChildFirstYMin(payload[120:], n.Right, b)

	bn := &skeletal.BuildNode{Key: n.Split, Payload: payload}
	if n.Left == nil && n.Right == nil {
		return bn, nil
	}
	for len(rb.sibs) <= depth {
		rb.firstX = append(rb.firstX, nil)
		rb.sibs = append(rb.sibs, nil)
	}
	rb.firstX[depth] = fx
	if n.Left != nil {
		rb.sibs[depth] = nil
		if n.Right != nil {
			rb.sibs[depth] = firstBlock(n.Right.Pts, b)
		}
		bn.Left, err = rb.persistRegion(n.Left, level, maxLevels, depth+1)
		if err != nil {
			return nil, err
		}
	}
	if n.Right != nil {
		rb.sibs[depth] = nil
		bn.Right, err = rb.persistRegion(n.Right, level, maxLevels, depth+1)
		if err != nil {
			return nil, err
		}
	}
	return bn, nil
}

// firstBlock returns the first (at most b) points of pts.
func firstBlock(pts []record.Point, b int) []record.Point {
	return pts[:min(len(pts), b)]
}

func putRegionList(buf []byte, head disk.PageID, count int) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(head))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(count))
}

func putChildFirstYMin(buf []byte, c *pstcore.MemNode, b int) {
	v := int64(math.MinInt64)
	if c != nil {
		fy := firstBlock(c.Pts, b)
		v = fy[len(fy)-1].Y
	}
	binary.LittleEndian.PutUint64(buf, uint64(v))
}

// Region payload accessors.
func rpRegionIdx(p []byte) int        { return int(binary.LittleEndian.Uint32(p[0:])) }
func rpMinY(p []byte) int64           { return int64(binary.LittleEndian.Uint64(p[8:])) }
func rpLeftMinY(p []byte) int64       { return int64(binary.LittleEndian.Uint64(p[16:])) }
func rpRightMinY(p []byte) int64      { return int64(binary.LittleEndian.Uint64(p[24:])) }
func rpFirstXMin(p []byte) int64      { return int64(binary.LittleEndian.Uint64(p[104:])) }
func rpLeftFirstYMin(p []byte) int64  { return int64(binary.LittleEndian.Uint64(p[112:])) }
func rpRightFirstYMin(p []byte) int64 { return int64(binary.LittleEndian.Uint64(p[120:])) }
func rpList(p []byte, off int) (disk.PageID, int) {
	return disk.PageID(binary.LittleEndian.Uint64(p[off:])), int(binary.LittleEndian.Uint32(p[off+8:]))
}

// List offsets within the region payload.
const (
	offX1 = 32
	offX2 = 44
	offY1 = 56
	offY2 = 68
	offA  = 80
	offS  = 92
)

// Query implements PointIndex for the hierarchy root.
func (h *Hierarchical) Query(a, b int64) ([]record.Point, skeletal.QueryStats, error) {
	return queryOwned(h, h.pager, a, b)
}

// QueryOn implements PointIndex for the hierarchy root: every level of the
// recursion reads through p.
func (h *Hierarchical) QueryOn(p disk.Pager, a, b int64, s *Scratch) ([]record.Point, skeletal.QueryStats, error) {
	if h.n == 0 {
		return nil, skeletal.QueryStats{}, nil
	}
	return h.root.QueryOn(p, a, b, s)
}

// Len reports the number of indexed points.
func (h *Hierarchical) Len() int { return h.n }

// TotalPages reports the storage footprint of all levels in pages.
func (h *Hierarchical) TotalPages() int {
	if h.n == 0 {
		return 0
	}
	return h.root.TotalPages()
}

// Levels reports the requested maximum level count.
func (h *Hierarchical) Levels() int { return h.levels }

// B reports the page capacity in points.
func (h *Hierarchical) B() int { return h.b }

// Len implements PointIndex.
func (rt *regionTree) Len() int { return rt.n }

// TotalPages implements PointIndex, including all sub-structures.
func (rt *regionTree) TotalPages() int {
	total := rt.skel.NumPages() + rt.listPages
	for _, sub := range rt.subs {
		total += sub.TotalPages()
	}
	return total
}
