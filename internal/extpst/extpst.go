// Package extpst implements the paper's external priority search trees for
// 2-sided queries {x >= a, y >= b} (Sections 3 and 4).
//
// Four static schemes share one binary priority-search-tree skeleton and
// differ in what they cache:
//
//   - IKO: the baseline of Icking, Klein and Ottmann. Each binary node
//     stores its top-B points; a query reads every node block on the corner
//     path and every right-sibling block directly, costing O(log n + t/B)
//     I/Os with O(n/B) pages.
//   - Basic (Lemma 3.1): every node carries an A-list (all ancestor points,
//     sorted by decreasing x) and an S-list (all right-sibling points,
//     sorted by decreasing y). Queries cost O(log_B n + t/B) I/Os; storage
//     grows to O((n/B)·log n) pages.
//   - Segmented (Theorem 3.2): the root-to-node path is cut into log B
//     sized chunks and each node's lists cover only its own chunk. Queries
//     walk O(log_B n) chunk boundaries, still O(log_B n + t/B) I/Os, with
//     storage O((n/B)·log B) pages.
//   - TwoLevel and Multilevel (Theorems 4.3/4.4) live in twolevel.go.
//
// Terminology follows Figure 4: the corner is the deepest node on the x=a
// descent whose region still reaches y >= b; nodes above it are ancestors;
// right children hanging off the descent are siblings; their subtrees are
// descendants and pay for themselves.
package extpst

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pathcache/internal/disk"
	"pathcache/internal/pstcore"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// Scheme selects the caching construction.
type Scheme int

// Schemes.
const (
	// IKO stores no caches (the prior-work baseline).
	IKO Scheme = iota
	// Basic stores full-path A/S-lists at every node (Lemma 3.1).
	Basic
	// Segmented stores per-chunk A/S-lists (Theorem 3.2).
	Segmented
)

func (s Scheme) String() string {
	switch s {
	case IKO:
		return "iko"
	case Basic:
		return "basic"
	case Segmented:
		return "segmented"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Node payload layout (60 bytes):
//
//	0  blockHead   int64   chain of this node's top-B points (y-descending)
//	8  blockCount  uint32
//	12 minY        int64   minimum y among stored points
//	20 leftMinY    int64   left child's minY (MinInt64 if absent)
//	28 rightMinY   int64   right child's minY (MinInt64 if absent)
//	36 aHead       int64   A-list chain (x-descending)
//	44 aCount      uint32
//	48 sHead       int64   S-list chain (y-descending)
//	56 sCount      uint32
const payloadSize = 60

// Tree is a static external priority search tree.
type Tree struct {
	pager  disk.Pager
	scheme Scheme
	skel   *skeletal.Tree
	b      int // points per page
	segLen int // chunk length in tree levels (Segmented only)
	n      int

	blockPages int
	aPages     int
	sPages     int
}

// Build constructs a tree over pts with the given scheme. The input slice
// is not modified.
func Build(p disk.Pager, pts []record.Point, scheme Scheme) (*Tree, error) {
	return BuildChunked(p, pts, scheme, 0)
}

// BuildChunked is Build with an explicit cache chunk length in tree levels
// (0 means the default, floor(log2 B)). It is the ablation knob for
// Theorem 3.2's choice of log B-sized path segments: shorter chunks mean
// smaller caches but more chunk boundaries per query, longer chunks the
// reverse, with Basic as the limiting case.
func BuildChunked(p disk.Pager, pts []record.Point, scheme Scheme, chunkLen int) (*Tree, error) {
	b := disk.ChainCap(p.PageSize(), record.PointSize)
	if b < 2 {
		return nil, fmt.Errorf("extpst: page size %d holds %d points; need >= 2", p.PageSize(), b)
	}
	if chunkLen < 0 {
		return nil, fmt.Errorf("extpst: negative chunk length %d", chunkLen)
	}
	t := &Tree{pager: p, scheme: scheme, b: b, n: len(pts)}
	t.segLen = segLenFor(b)
	if chunkLen > 0 {
		t.segLen = chunkLen
	}
	root := pstcore.Build(pstcore.SortedAsc(pts), b)
	bn, err := (&listBuilder{t: t}).persist(root, 0)
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

// chunkStart returns the first level of the chunk containing depth.
func (t *Tree) chunkStart(depth int) int {
	if t.scheme == Basic {
		return 0
	}
	return (depth / t.segLen) * t.segLen
}

// listBuilder carries persist's state along the DFS path. For each depth
// d on the current path, xBlocks[d] holds that node's block re-sorted by
// decreasing x, and sibs[d] the block of the right sibling the path passed
// there (nil when the path went right). merger holds the buffers every
// node's lists are merged in.
type listBuilder struct {
	t             *Tree
	xBlocks, sibs [][]record.Point
	merger        pstcore.Merger
}

// persist writes node chains depth-first and assembles the skeletal tree.
// A node's A-list (its chunk ancestors' points, x-descending) and S-list
// (the right siblings off its chunk path, y-descending) are merges of the
// path's runs, each already in order, so no list is sorted whole and none
// outlives its write.
func (lb *listBuilder) persist(n *pstcore.MemNode, depth int) (*skeletal.BuildNode, error) {
	if n == nil {
		return nil, nil
	}
	t := lb.t
	blockHead, pages, err := pstcore.WritePoints(t.pager, n.Pts)
	if err != nil {
		return nil, err
	}
	t.blockPages += pages

	payload := make([]byte, payloadSize)
	binary.LittleEndian.PutUint64(payload[0:], uint64(blockHead))
	binary.LittleEndian.PutUint32(payload[8:], uint32(len(n.Pts)))
	binary.LittleEndian.PutUint64(payload[12:], uint64(n.MinY))
	putChildMinY(payload[20:], n.Left)
	putChildMinY(payload[28:], n.Right)
	invalid := int64(disk.InvalidPage)
	binary.LittleEndian.PutUint64(payload[36:], uint64(invalid))
	binary.LittleEndian.PutUint64(payload[48:], uint64(invalid))

	if t.scheme != IKO && depth > 0 {
		cs := t.chunkStart(depth)
		a := lb.merger.Merge(lb.xBlocks[cs:depth], record.CmpXDesc)
		aHead, pages, err := pstcore.WritePoints(t.pager, a)
		if err != nil {
			return nil, err
		}
		t.aPages += pages
		binary.LittleEndian.PutUint64(payload[36:], uint64(aHead))
		binary.LittleEndian.PutUint32(payload[44:], uint32(len(a)))

		s := lb.merger.Merge(lb.sibs[cs:depth], record.CmpYDesc)
		sHead, pages, err := pstcore.WritePoints(t.pager, s)
		if err != nil {
			return nil, err
		}
		t.sPages += pages
		binary.LittleEndian.PutUint64(payload[48:], uint64(sHead))
		binary.LittleEndian.PutUint32(payload[56:], uint32(len(s)))
	}

	bn := &skeletal.BuildNode{Key: n.Split, Payload: payload}
	if n.Left == nil && n.Right == nil {
		return bn, nil
	}
	for len(lb.sibs) <= depth {
		lb.xBlocks = append(lb.xBlocks, nil)
		lb.sibs = append(lb.sibs, nil)
	}
	if t.scheme != IKO && t.chunkStart(depth+1) <= depth {
		lb.xBlocks[depth] = append(lb.xBlocks[depth][:0], n.Pts...)
		slices.SortFunc(lb.xBlocks[depth], record.CmpXDesc)
	}
	if n.Left != nil {
		// Path goes left below this node: the right child is the sibling.
		lb.sibs[depth] = nil
		if n.Right != nil {
			lb.sibs[depth] = n.Right.Pts
		}
		bn.Left, err = lb.persist(n.Left, depth+1)
		if err != nil {
			return nil, err
		}
	}
	if n.Right != nil {
		// Path goes right: the left child is a *left* sibling, outside every
		// 2-sided query's x-range, so no sibling points are recorded.
		lb.sibs[depth] = nil
		bn.Right, err = lb.persist(n.Right, depth+1)
		if err != nil {
			return nil, err
		}
	}
	return bn, nil
}

func putChildMinY(buf []byte, c *pstcore.MemNode) {
	v := int64(math.MinInt64)
	if c != nil {
		v = c.MinY
	}
	binary.LittleEndian.PutUint64(buf, uint64(v))
}

// payload accessors.
func plBlock(p []byte) (disk.PageID, int) {
	return disk.PageID(binary.LittleEndian.Uint64(p[0:])), int(binary.LittleEndian.Uint32(p[8:]))
}
func plMinY(p []byte) int64      { return int64(binary.LittleEndian.Uint64(p[12:])) }
func plLeftMinY(p []byte) int64  { return int64(binary.LittleEndian.Uint64(p[20:])) }
func plRightMinY(p []byte) int64 { return int64(binary.LittleEndian.Uint64(p[28:])) }
func plAList(p []byte) (disk.PageID, int) {
	return disk.PageID(binary.LittleEndian.Uint64(p[36:])), int(binary.LittleEndian.Uint32(p[44:]))
}
func plSList(p []byte) (disk.PageID, int) {
	return disk.PageID(binary.LittleEndian.Uint64(p[48:])), int(binary.LittleEndian.Uint32(p[56:]))
}

// Len reports the number of indexed points.
func (t *Tree) Len() int { return t.n }

// B reports the page capacity in points.
func (t *Tree) B() int { return t.b }

// Scheme reports the caching scheme.
func (t *Tree) Scheme() Scheme { return t.scheme }

// SegLen reports the chunk length in levels (meaningful for Segmented).
func (t *Tree) SegLen() int { return t.segLen }

// Height reports the binary tree height.
func (t *Tree) Height() int { return t.skel.Height() }

// SpacePages breaks down storage: skeleton, point blocks, A-lists, S-lists.
func (t *Tree) SpacePages() (skeleton, blocks, aLists, sLists int) {
	return t.skel.NumPages(), t.blockPages, t.aPages, t.sPages
}

// TotalPages is the complete storage footprint in pages.
func (t *Tree) TotalPages() int {
	return t.skel.NumPages() + t.blockPages + t.aPages + t.sPages
}

// Destroy frees every page the tree owns — node blocks, A/S lists and the
// skeleton. The dynamic structure uses this to rebuild a region's
// second-level tree; the traversal's page reads are charged like any other
// rebuild I/O. The tree must not be used afterwards.
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
		heads := make([]disk.PageID, 0, 3)
		if h, c := plBlock(n.Payload); c > 0 {
			heads = append(heads, h)
		}
		if h, c := plAList(n.Payload); c > 0 {
			heads = append(heads, h)
		}
		if h, c := plSList(n.Payload); c > 0 {
			heads = append(heads, h)
		}
		for _, h := range heads {
			if err := disk.FreeChain(t.pager, h); err != nil {
				return err
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
	t.blockPages, t.aPages, t.sPages, t.n = 0, 0, 0, 0
	return t.skel.Free()
}

// Points reads back every indexed point by traversing the node blocks —
// used when merging structures (e.g. the logarithmic-method baseline). The
// traversal costs O(n/B + skeleton) page reads, charged like any merge.
func (t *Tree) Points() ([]record.Point, error) {
	if t.n == 0 {
		return nil, nil
	}
	out := make([]record.Point, 0, t.n)
	w := t.skel.NewWalker()
	var walk func(ref skeletal.NodeRef) error
	walk = func(ref skeletal.NodeRef) error {
		if !ref.Valid() {
			return nil
		}
		n, err := w.Node(ref)
		if err != nil {
			return err
		}
		left, right := n.Left, n.Right
		head, count := plBlock(n.Payload)
		if count > 0 {
			if _, err := disk.ScanChain(t.pager, record.PointSize, head, func(rec []byte) bool {
				out = append(out, record.DecodePoint(rec))
				return true
			}); err != nil {
				return err
			}
		}
		if err := walk(left); err != nil {
			return err
		}
		return walk(right)
	}
	if err := walk(t.skel.Root()); err != nil {
		return nil, err
	}
	return out, nil
}
