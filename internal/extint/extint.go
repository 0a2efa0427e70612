// Package extint implements the paper's external interval tree
// (Theorem 3.5): stabbing queries in O(log_B n + t/B) I/Os using
// O((n/B)·log B) pages.
//
// The classic interval tree hangs every interval off the highest node whose
// center it contains, in two orderings: by increasing left endpoint (the
// L-list, scanned when the query point is left of the center) and by
// decreasing right endpoint (the R-list, scanned when it is right). The
// external "restricted" version here groups endpoints into fat leaves of B,
// blocks the binary tree into a skeletal B-tree, and path-caches the lists:
//
// The direction taken at every ancestor is a function of the leaf alone, so
// each node stores two merged caches over its chunk of the path — the first
// L-blocks of left-descent ancestors (sorted by Lo) and the first R-blocks
// of right-descent ancestors (sorted by Hi, descending). A query reads one
// cache pair per chunk (O(log_B n) of them) plus list tails whose first
// block was entirely inside the query — those are paid for.
package extint

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// Variant selects between the uncached strawman and the cached structure.
type Variant int

// Variants.
const (
	// Naive reads every ancestor's list directly: O(log n + t/B) I/Os.
	Naive Variant = iota
	// PathCached uses per-chunk direction-aware caches: O(log_B n + t/B).
	PathCached
)

func (v Variant) String() string {
	if v == PathCached {
		return "path-cached"
	}
	return "naive"
}

// Node payload layout (100 bytes):
//
//	0   l1Head/l1Count   first L block (lowest Lo values)
//	12  l2Head/l2Count   L tail
//	24  r1Head/r1Count   first R block (highest Hi values)
//	36  r2Head/r2Count   R tail
//	48  lcHead/lcCount   L cache: chunk ancestors' first L blocks (Lo asc)
//	60  rcHead/rcCount   R cache: chunk ancestors' first R blocks (Hi desc)
//	72  localHead/localCount  fat-leaf local intervals
//	84  firstLMaxLo int64     largest Lo within the first L block
//	92  firstRMinHi int64     smallest Hi within the first R block
const payloadSize = 100

// List offsets within the payload.
const (
	offL1    = 0
	offL2    = 12
	offR1    = 24
	offR2    = 36
	offLC    = 48
	offRC    = 60
	offLocal = 72
)

// Tree is a static external interval tree.
type Tree struct {
	pager   disk.Pager
	variant Variant
	skel    *skeletal.Tree
	b       int
	n       int

	listPages  int
	cachePages int
	localPages int
}

// memNode is the in-memory tree used during construction.
type memNode struct {
	gLo, gHi    int // group index range [gLo, gHi)
	center      int64
	byLo        []record.Interval
	byHi        []record.Interval
	local       []record.Interval
	left, right *memNode
}

// Build constructs the tree over ivs. Intervals must satisfy Lo <= Hi.
func Build(p disk.Pager, ivs []record.Interval, v Variant) (*Tree, error) {
	b := disk.ChainCap(p.PageSize(), record.IntervalSize)
	if b < 2 {
		return nil, fmt.Errorf("extint: page size %d holds %d intervals; need >= 2", p.PageSize(), b)
	}
	for _, iv := range ivs {
		if !iv.Valid() {
			return nil, fmt.Errorf("extint: invalid interval %v", iv)
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

	ends := make([]int64, 0, 2*len(ivs))
	for _, iv := range ivs {
		ends = append(ends, iv.Lo, iv.Hi)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	uniq := ends[:1]
	for _, e := range ends[1:] {
		if e != uniq[len(uniq)-1] {
			uniq = append(uniq, e)
		}
	}
	groups := (len(uniq) + b - 1) / b
	root := buildTree(uniq, 0, groups, b)
	for _, iv := range ivs {
		insert(root, iv)
	}
	bn, err := t.persist(root, uniq, 0, nil)
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

// buildTree builds the binary tree over endpoint groups [gLo, gHi).
func buildTree(ends []int64, gLo, gHi, b int) *memNode {
	n := &memNode{gLo: gLo, gHi: gHi}
	if gHi-gLo <= 1 {
		return n
	}
	mid := (gLo + gHi) / 2
	n.center = ends[mid*b]
	n.left = buildTree(ends, gLo, mid, b)
	n.right = buildTree(ends, mid, gHi, b)
	return n
}

// insert places iv at the highest node whose center it contains, or in the
// fat-leaf local list if it contains none.
func insert(n *memNode, iv record.Interval) {
	for {
		if n.left == nil {
			n.local = append(n.local, iv)
			return
		}
		switch {
		case iv.Contains(n.center):
			n.byLo = append(n.byLo, iv)
			return
		case iv.Hi < n.center:
			n = n.left
		default:
			n = n.right
		}
	}
}

// pathEntry carries an ancestor's first-block contribution for the caches.
type pathEntry struct {
	wentLeft bool
	firstL   []record.Interval // first L block (if wentLeft)
	firstR   []record.Interval // first R block (if !wentLeft)
}

func (t *Tree) segLen() int {
	s := bits.Len(uint(t.b)) - 1
	if s < 1 {
		s = 1
	}
	return s
}

// persist writes a node's chains and returns the skeletal build node.
func (t *Tree) persist(n *memNode, ends []int64, depth int, path []pathEntry) (*skeletal.BuildNode, error) {
	payload := make([]byte, payloadSize)
	for _, off := range []int{offL1, offL2, offR1, offR2, offLC, offRC, offLocal} {
		putList(payload[off:], disk.InvalidPage, 0)
	}

	// Node lists (internal nodes only; leaves keep everything local).
	var firstL, firstR []record.Interval
	if n.left != nil {
		n.byHi = append([]record.Interval(nil), n.byLo...)
		sort.Slice(n.byLo, func(i, j int) bool {
			if n.byLo[i].Lo != n.byLo[j].Lo {
				return n.byLo[i].Lo < n.byLo[j].Lo
			}
			return n.byLo[i].ID < n.byLo[j].ID
		})
		sort.Slice(n.byHi, func(i, j int) bool {
			if n.byHi[i].Hi != n.byHi[j].Hi {
				return n.byHi[i].Hi > n.byHi[j].Hi
			}
			return n.byHi[i].ID < n.byHi[j].ID
		})
		firstL = n.byLo
		if len(firstL) > t.b {
			firstL = firstL[:t.b]
		}
		firstR = n.byHi
		if len(firstR) > t.b {
			firstR = firstR[:t.b]
		}
		if err := t.writeList(payload[offL1:], firstL); err != nil {
			return nil, err
		}
		if err := t.writeList(payload[offL2:], n.byLo[len(firstL):]); err != nil {
			return nil, err
		}
		if err := t.writeList(payload[offR1:], firstR); err != nil {
			return nil, err
		}
		if err := t.writeList(payload[offR2:], n.byHi[len(firstR):]); err != nil {
			return nil, err
		}
		if len(firstL) > 0 {
			binary.LittleEndian.PutUint64(payload[84:], uint64(firstL[len(firstL)-1].Lo))
			binary.LittleEndian.PutUint64(payload[92:], uint64(firstR[len(firstR)-1].Hi))
		}
	}

	// Per-chunk direction-aware caches.
	if t.variant == PathCached && depth > 0 {
		cs := (depth / t.segLen()) * t.segLen()
		var lc, rc []record.Interval
		for i := cs; i < depth; i++ {
			if path[i].wentLeft {
				lc = append(lc, path[i].firstL...)
			} else {
				rc = append(rc, path[i].firstR...)
			}
		}
		sort.Slice(lc, func(i, j int) bool {
			if lc[i].Lo != lc[j].Lo {
				return lc[i].Lo < lc[j].Lo
			}
			return lc[i].ID < lc[j].ID
		})
		sort.Slice(rc, func(i, j int) bool {
			if rc[i].Hi != rc[j].Hi {
				return rc[i].Hi > rc[j].Hi
			}
			return rc[i].ID < rc[j].ID
		})
		head, pages, err := disk.WriteChain(t.pager, record.IntervalSize, record.EncodeIntervals(lc))
		if err != nil {
			return nil, err
		}
		t.cachePages += pages
		putList(payload[offLC:], head, len(lc))
		head, pages, err = disk.WriteChain(t.pager, record.IntervalSize, record.EncodeIntervals(rc))
		if err != nil {
			return nil, err
		}
		t.cachePages += pages
		putList(payload[offRC:], head, len(rc))
	}

	bn := &skeletal.BuildNode{Payload: payload}
	if n.left == nil {
		bn.Key = ends[n.gLo*t.b]
		head, pages, err := disk.WriteChain(t.pager, record.IntervalSize, record.EncodeIntervals(n.local))
		if err != nil {
			return nil, err
		}
		t.localPages += pages
		putList(payload[offLocal:], head, len(n.local))
		return bn, nil
	}
	bn.Key = n.center
	var err error
	bn.Left, err = t.persist(n.left, ends, depth+1, append(path, pathEntry{wentLeft: true, firstL: firstL}))
	if err != nil {
		return nil, err
	}
	bn.Right, err = t.persist(n.right, ends, depth+1, append(path, pathEntry{wentLeft: false, firstR: firstR}))
	if err != nil {
		return nil, err
	}
	return bn, nil
}

func (t *Tree) writeList(buf []byte, ivs []record.Interval) error {
	head, pages, err := disk.WriteChain(t.pager, record.IntervalSize, record.EncodeIntervals(ivs))
	if err != nil {
		return err
	}
	t.listPages += pages
	putList(buf, head, len(ivs))
	return nil
}

func putList(buf []byte, head disk.PageID, count int) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(head))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(count))
}

func getList(p []byte, off int) (disk.PageID, int) {
	return disk.PageID(binary.LittleEndian.Uint64(p[off:])), int(binary.LittleEndian.Uint32(p[off+8:]))
}

func firstLMaxLo(p []byte) int64 { return int64(binary.LittleEndian.Uint64(p[84:])) }
func firstRMinHi(p []byte) int64 { return int64(binary.LittleEndian.Uint64(p[92:])) }

// Len reports the number of indexed intervals.
func (t *Tree) Len() int { return t.n }

// B reports the page capacity in intervals.
func (t *Tree) B() int { return t.b }

// Variant reports the construction variant.
func (t *Tree) Variant() Variant { return t.variant }

// SpacePages breaks down storage: skeleton, L/R lists, caches, leaf locals.
func (t *Tree) SpacePages() (skeleton, lists, caches, locals int) {
	return t.skel.NumPages(), t.listPages, t.cachePages, t.localPages
}

// TotalPages is the complete storage footprint in pages.
func (t *Tree) TotalPages() int {
	return t.skel.NumPages() + t.listPages + t.cachePages + t.localPages
}
