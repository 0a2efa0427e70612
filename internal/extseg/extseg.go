// Package extseg implements the external segment tree of Section 2 of the
// paper, in two variants that differ exactly by path caching:
//
//   - Naive: the strawman of Figure 3. The segment tree is blocked into a
//     skeletal B-tree and every cover-list on the search path is read
//     directly. Underfull cover-lists (fewer than B intervals) each cost a
//     wasteful I/O, so a stabbing query costs O(log n + t/B) I/Os.
//   - PathCached: for every leaf, the underfull cover-lists along its
//     root-to-leaf path are coalesced into a blocked cache stored with the
//     leaf. A query reads full cover-lists directly (those I/Os are paid for
//     by their output) and one cache, giving O(log_B n + t/B) I/Os.
//
// Following the paper's skeletal-leaf optimization, the tree is built over
// "fat leaves" of B consecutive elementary slabs, so the binary tree has
// O(n/B) nodes and the caches take O((n/B)·log n) pages — the bound of
// Theorem 3.4. Intervals that only partially overlap a fat leaf's span live
// in that leaf's local list.
//
// As in the paper, the space analysis assumes inputs do not share endpoints;
// with heavy endpoint duplication local lists can exceed one page, which
// degrades space and the additive query constant but never correctness.
package extseg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// Variant selects between the strawman and the path-cached structure.
type Variant int

// Variants.
const (
	// Naive reads every cover-list on the path directly.
	Naive Variant = iota
	// PathCached coalesces underfull cover-lists into per-leaf caches.
	PathCached
)

func (v Variant) String() string {
	if v == PathCached {
		return "path-cached"
	}
	return "naive"
}

// Node payload layout: cover head (8) + cover count (4) +
// local head (8) + local count (4) + cache head (8) + cache count (4).
const payloadSize = 36

// Tree is a static external segment tree answering stabbing queries.
type Tree struct {
	pager   disk.Pager
	variant Variant
	skel    *skeletal.Tree
	b       int   // intervals per page: the B of the I/O model
	lo, hi  int64 // domain [lo, hi) covered by the tree
	n       int

	// Space accounting, in pages.
	coverPages int
	localPages int
	cachePages int
}

// buildNode is the in-memory tree used during construction.
type buildNode struct {
	loIdx, hiIdx int // boundary index span [loIdx, hiIdx)
	cover        []record.Interval
	local        []record.Interval // leaves only
	left, right  *buildNode
}

// Build constructs the tree over ivs with the given variant. Intervals with
// Lo > Hi or Hi = MaxInt64 are rejected.
func Build(p disk.Pager, ivs []record.Interval, v Variant) (*Tree, error) {
	b := disk.ChainCap(p.PageSize(), record.IntervalSize)
	if b < 2 {
		return nil, fmt.Errorf("extseg: page size %d holds %d intervals; need >= 2", p.PageSize(), b)
	}
	for _, iv := range ivs {
		if !iv.Valid() {
			return nil, fmt.Errorf("extseg: invalid interval %v", iv)
		}
		if iv.Hi == math.MaxInt64 {
			return nil, errors.New("extseg: interval Hi must be < MaxInt64")
		}
	}
	t := &Tree{pager: p, variant: v, b: b, n: len(ivs)}
	if len(ivs) == 0 {
		skel, err := skeletal.Build(p, nil, payloadSize)
		if err != nil {
			return nil, err
		}
		t.skel = skel
		return t, nil
	}

	// Elementary boundaries.
	bounds := make([]int64, 0, 2*len(ivs))
	for _, iv := range ivs {
		bounds = append(bounds, iv.Lo, iv.Hi+1)
	}
	ends := sortedUnique(bounds)
	t.lo, t.hi = ends[0], ends[len(ends)-1]

	// Fat leaves: groups of b consecutive elementary slabs.
	slabs := len(ends) - 1
	root := buildTree(ends, 0, slabs, b)

	// Allocate every interval to cover-lists (fat-leaf aligned) and local
	// lists.
	for _, iv := range ivs {
		insert(root, ends, iv)
	}

	// Persist lists bottom-up, building caches along the way when cached.
	bn, err := t.persist(root, ends, nil)
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

func sortedUnique(xs []int64) []int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// buildTree builds the binary tree over slab index range [lo, hi), stopping
// at fat leaves of at most b slabs.
func buildTree(ends []int64, lo, hi, b int) *buildNode {
	n := &buildNode{loIdx: lo, hiIdx: hi}
	if hi-lo <= b {
		return n
	}
	// Split on a slab boundary, keeping both halves multiples of b where
	// possible so leaves stay aligned.
	slabs := hi - lo
	leaves := (slabs + b - 1) / b
	mid := lo + (leaves/2)*b
	n.left = buildTree(ends, lo, mid, b)
	n.right = buildTree(ends, mid, hi, b)
	return n
}

// insert allocates iv: it lands on the cover-list of every node whose span
// it covers (and whose parent's span it does not), and on the local list of
// every fat leaf it partially overlaps.
func insert(n *buildNode, ends []int64, iv record.Interval) {
	nLo, nHi := ends[n.loIdx], ends[n.hiIdx]
	if iv.Lo >= nHi || iv.Hi+1 <= nLo {
		return // disjoint
	}
	if iv.Lo <= nLo && nHi <= iv.Hi+1 {
		n.cover = append(n.cover, iv)
		return
	}
	if n.left == nil {
		n.local = append(n.local, iv)
		return
	}
	insert(n.left, ends, iv)
	insert(n.right, ends, iv)
}

// persist writes a node's chains and returns the skeletal build node. path
// carries the underfull cover-lists of ancestors for cache construction.
func (t *Tree) persist(n *buildNode, ends []int64, path []record.Interval) (*skeletal.BuildNode, error) {
	coverHead, pages, err := disk.WriteChain(t.pager, record.IntervalSize, record.EncodeIntervals(n.cover))
	if err != nil {
		return nil, err
	}
	t.coverPages += pages

	childPath := path
	if t.variant == PathCached && len(n.cover) > 0 && len(n.cover) < t.b {
		childPath = append(append([]record.Interval(nil), path...), n.cover...)
	}

	payload := make([]byte, payloadSize)
	putList(payload[0:], coverHead, len(n.cover))
	putList(payload[12:], disk.InvalidPage, 0)
	putList(payload[24:], disk.InvalidPage, 0)

	bn := &skeletal.BuildNode{Payload: payload}
	if n.left == nil {
		// Leaf: local list, cache, and routing key = span start.
		bn.Key = ends[n.loIdx]
		localHead, pages, err := disk.WriteChain(t.pager, record.IntervalSize, record.EncodeIntervals(n.local))
		if err != nil {
			return nil, err
		}
		t.localPages += pages
		putList(payload[12:], localHead, len(n.local))
		if t.variant == PathCached {
			cacheHead, pages, err := disk.WriteChain(t.pager, record.IntervalSize, record.EncodeIntervals(childPath))
			if err != nil {
				return nil, err
			}
			t.cachePages += pages
			putList(payload[24:], cacheHead, len(childPath))
		}
		return bn, nil
	}
	// Internal: routing key is the split boundary (left child's upper end).
	bn.Key = ends[n.left.hiIdx]
	if bn.Left, err = t.persist(n.left, ends, childPath); err != nil {
		return nil, err
	}
	if bn.Right, err = t.persist(n.right, ends, childPath); err != nil {
		return nil, err
	}
	return bn, nil
}

func putList(buf []byte, head disk.PageID, count int) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(head))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(count))
}

func getList(buf []byte) (disk.PageID, int) {
	return disk.PageID(binary.LittleEndian.Uint64(buf[0:8])), int(binary.LittleEndian.Uint32(buf[8:12]))
}

// Stab reports every interval containing q, together with the query's I/O
// profile.
func (t *Tree) Stab(q int64) ([]record.Interval, skeletal.QueryStats, error) {
	return t.StabOn(t.pager, q)
}

// StabOn is Stab reading every page through p. The walker's page buffers
// go back to their pool when it returns; the answer is decoded by value.
func (t *Tree) StabOn(p disk.Pager, q int64) ([]record.Interval, skeletal.QueryStats, error) {
	var st skeletal.QueryStats
	if t.n == 0 || q < t.lo || q >= t.hi {
		return nil, st, nil
	}
	var w skeletal.Walker
	w.Reset(t.skel, p)
	defer w.Release()
	path, err := w.Descend(t.skel.Root(), func(n skeletal.Node) skeletal.Dir {
		if n.IsLeaf() {
			return skeletal.Stop
		}
		if q < n.Key {
			return skeletal.Left
		}
		return skeletal.Right
	})
	if err != nil {
		return nil, st, err
	}
	st.PathPages = w.PagesLoaded()

	var out []record.Interval
	scan := func(head disk.PageID, filter bool) error {
		matched := 0
		pages, err := disk.ScanChain(p, record.IntervalSize, head, func(rec []byte) bool {
			iv := record.DecodeInterval(rec)
			if !filter || iv.Contains(q) {
				out = append(out, iv)
				matched++
			}
			return true
		})
		if err != nil {
			return err
		}
		st.Account(pages, matched, t.b)
		return nil
	}

	for i, n := range path {
		head, count := getList(n.Payload[0:])
		isLeaf := i == len(path)-1
		// Cover-lists: with caching, underfull ones are served by the leaf
		// cache; full ones are always read directly.
		if count > 0 && (t.variant == Naive || count >= t.b) {
			if err := scan(head, false); err != nil {
				return nil, st, err
			}
		}
		if isLeaf {
			if lh, lc := getList(n.Payload[12:]); lc > 0 {
				if err := scan(lh, true); err != nil {
					return nil, st, err
				}
			}
			if t.variant == PathCached {
				if ch, cc := getList(n.Payload[24:]); cc > 0 {
					if err := scan(ch, false); err != nil {
						return nil, st, err
					}
				}
			}
		}
	}
	st.Results = len(out)
	return out, st, nil
}

// Len reports the number of indexed intervals.
func (t *Tree) Len() int { return t.n }

// B reports the page capacity in intervals.
func (t *Tree) B() int { return t.b }

// Variant reports which construction this tree uses.
func (t *Tree) Variant() Variant { return t.variant }

// SpacePages breaks down the structure's storage footprint in pages.
func (t *Tree) SpacePages() (skeleton, cover, local, cache int) {
	return t.skel.NumPages(), t.coverPages, t.localPages, t.cachePages
}

// TotalPages is the full storage footprint in pages.
func (t *Tree) TotalPages() int {
	return t.skel.NumPages() + t.coverPages + t.localPages + t.cachePages
}

// Height reports the height of the underlying binary tree.
func (t *Tree) Height() int { return t.skel.Height() }
