// Package inmem implements the classical main-memory data structures the
// paper transforms into external ones — the segment tree [Ben], the interval
// tree [Ede], and the priority search tree [McC] — together with brute-force
// scans. They play two roles in this repository: correctness oracles for the
// external structures, and the "in-core side" of the path-caching
// transformation for documentation and examples.
//
// All interval semantics are closed ([Lo, Hi] contains q iff Lo <= q <= Hi),
// and 2-sided queries are the paper's quadrant {x >= a, y >= b}.
package inmem

import (
	"math"
	"slices"
	"sort"

	"pathcache/internal/record"
)

// TwoSided brute-force: all points with X >= a and Y >= b.
func TwoSided(pts []record.Point, a, b int64) []record.Point {
	var out []record.Point
	for _, p := range pts {
		if p.X >= a && p.Y >= b {
			out = append(out, p)
		}
	}
	return out
}

// ThreeSided brute-force: all points with a1 <= X <= a2 and Y >= b.
func ThreeSided(pts []record.Point, a1, a2, b int64) []record.Point {
	var out []record.Point
	for _, p := range pts {
		if p.X >= a1 && p.X <= a2 && p.Y >= b {
			out = append(out, p)
		}
	}
	return out
}

// Stab brute-force: all intervals containing q.
func Stab(ivs []record.Interval, q int64) []record.Interval {
	var out []record.Interval
	for _, iv := range ivs {
		if iv.Contains(q) {
			out = append(out, iv)
		}
	}
	return out
}

// SamePoints reports whether a and b hold the same points with the same
// multiplicities, in any order — how an answer is compared with one of the
// oracles above. Neither argument is reordered.
func SamePoints(a, b []record.Point) bool { return sameSorted(a, b, record.CmpXYID) }

// SameIntervals is SamePoints for intervals.
func SameIntervals(a, b []record.Interval) bool {
	return sameSorted(a, b, func(x, y record.Interval) int { return record.CmpXYID(x.ToPoint(), y.ToPoint()) })
}

// sameSorted compares sorted copies of a and b.
func sameSorted[T comparable](a, b []T, cmp func(T, T) int) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := slices.Clone(a), slices.Clone(b)
	slices.SortFunc(as, cmp)
	slices.SortFunc(bs, cmp)
	return slices.Equal(as, bs)
}

// SortPointsByX sorts points by (X, Y, ID) in place.
func SortPointsByX(pts []record.Point) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].Less(pts[j]) })
}

// PST is McCreight's priority search tree: a balanced binary search tree on
// x that is simultaneously a max-heap on y. It answers 3-sided queries
// {a1 <= x <= a2, y >= b} in O(log n + t) and uses O(n) space.
type PST struct {
	root *pstNode
	n    int
}

type pstNode struct {
	pt          record.Point // the max-y point of this subtree's point set
	split       int64        // x-median routing key of the remaining points
	left, right *pstNode
}

// NewPST builds a priority search tree over pts. The input slice is not
// modified.
func NewPST(pts []record.Point) *PST {
	sorted := append([]record.Point(nil), pts...)
	SortPointsByX(sorted)
	return &PST{root: buildPST(sorted), n: len(pts)}
}

// buildPST consumes points sorted by x. It extracts the max-y point for the
// node and splits the remainder at the x-median.
func buildPST(sorted []record.Point) *pstNode {
	if len(sorted) == 0 {
		return nil
	}
	// Find max-y point (ties broken by position for determinism).
	best := 0
	for i := range sorted {
		if sorted[i].Y > sorted[best].Y {
			best = i
		}
	}
	n := &pstNode{pt: sorted[best]}
	rest := make([]record.Point, 0, len(sorted)-1)
	rest = append(rest, sorted[:best]...)
	rest = append(rest, sorted[best+1:]...)
	if len(rest) == 0 {
		n.split = n.pt.X
		return n
	}
	mid := len(rest) / 2
	n.split = rest[mid].X
	n.left = buildPST(rest[:mid])
	n.right = buildPST(rest[mid:])
	return n
}

// Len reports the number of points.
func (t *PST) Len() int { return t.n }

// ThreeSided reports all points with a1 <= x <= a2 and y >= b.
func (t *PST) ThreeSided(a1, a2, b int64) []record.Point {
	var out []record.Point
	var walk func(n *pstNode)
	walk = func(n *pstNode) {
		if n == nil || n.pt.Y < b {
			// Heap order: everything below has y <= n.pt.Y < b.
			return
		}
		if n.pt.X >= a1 && n.pt.X <= a2 {
			out = append(out, n.pt)
		}
		// Left subtree holds points with x <= split, right with x >= split.
		if a1 <= n.split {
			walk(n.left)
		}
		if a2 >= n.split {
			walk(n.right)
		}
	}
	walk(t.root)
	return out
}

// TwoSided reports all points with x >= a and y >= b (the paper's 2-sided
// quadrant query).
func (t *PST) TwoSided(a, b int64) []record.Point {
	return t.ThreeSided(a, math.MaxInt64, b)
}

// SegmentTree is Bentley's segment tree over a static set of closed integer
// intervals, answering stabbing queries in O(log n + t) with O(n log n)
// space. Closed intervals [lo,hi] are handled exactly by working with the
// half-open integer intervals [lo, hi+1).
type SegmentTree struct {
	ends   []int64 // sorted unique elementary boundaries
	root   *segNode
	n      int
	stored int // total interval copies across all cover lists
}

type segNode struct {
	lo, hi      int // elementary range [ends[lo], ends[hi]) as index span
	cover       []record.Interval
	left, right *segNode
}

// NewSegmentTree builds a segment tree over ivs. Intervals must satisfy
// Lo <= Hi and Hi < MaxInt64 (the +1 of the half-open mapping must not
// overflow); invalid intervals are ignored.
func NewSegmentTree(ivs []record.Interval) *SegmentTree {
	var bounds []int64
	valid := make([]record.Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Valid() || iv.Hi == math.MaxInt64 {
			continue
		}
		valid = append(valid, iv)
		bounds = append(bounds, iv.Lo, iv.Hi+1)
	}
	t := &SegmentTree{ends: sortedUnique(bounds), n: len(valid)}
	if len(t.ends) >= 2 {
		t.root = t.buildSeg(0, len(t.ends)-1)
		for _, iv := range valid {
			t.insert(t.root, iv)
		}
	}
	return t
}

func sortedUnique(xs []int64) []int64 {
	if len(xs) == 0 {
		return nil
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func (t *SegmentTree) buildSeg(lo, hi int) *segNode {
	n := &segNode{lo: lo, hi: hi}
	if hi-lo > 1 {
		mid := (lo + hi) / 2
		n.left = t.buildSeg(lo, mid)
		n.right = t.buildSeg(mid, hi)
	}
	return n
}

// insert places iv on every allocation node: nodes whose elementary span is
// contained in iv but whose parent's span is not.
func (t *SegmentTree) insert(n *segNode, iv record.Interval) {
	nLo, nHi := t.ends[n.lo], t.ends[n.hi]
	if iv.Lo <= nLo && nHi <= iv.Hi+1 {
		n.cover = append(n.cover, iv)
		t.stored++
		return
	}
	if n.left == nil {
		return
	}
	mid := t.ends[(n.lo+n.hi)/2]
	if iv.Lo < mid {
		t.insert(n.left, iv)
	}
	if iv.Hi+1 > mid {
		t.insert(n.right, iv)
	}
}

// Stab reports all intervals containing q.
func (t *SegmentTree) Stab(q int64) []record.Interval {
	var out []record.Interval
	if t.root == nil || q < t.ends[0] || q >= t.ends[len(t.ends)-1] {
		return out
	}
	for n := t.root; n != nil; {
		out = append(out, n.cover...)
		if n.left == nil {
			break
		}
		if q < t.ends[(n.lo+n.hi)/2] {
			n = n.left
		} else {
			n = n.right
		}
	}
	return out
}

// Len reports the number of indexed intervals.
func (t *SegmentTree) Len() int { return t.n }

// Stored reports the total number of interval copies across cover lists —
// the O(n log n) the paper's space analysis charges.
func (t *SegmentTree) Stored() int { return t.stored }

// IntervalTree is Edelsbrunner's interval tree: intervals hang off the
// highest node whose center they contain, in two sorted lists. Stabbing is
// O(log n + t) with O(n) space.
type IntervalTree struct {
	root *itvNode
	n    int
}

type itvNode struct {
	center      int64
	byLo        []record.Interval // sorted by Lo ascending
	byHi        []record.Interval // sorted by Hi descending
	left, right *itvNode
}

// NewIntervalTree builds an interval tree over ivs. Invalid intervals
// (Lo > Hi) are ignored.
func NewIntervalTree(ivs []record.Interval) *IntervalTree {
	valid := make([]record.Interval, 0, len(ivs))
	var pts []int64
	for _, iv := range ivs {
		if iv.Valid() {
			valid = append(valid, iv)
			pts = append(pts, iv.Lo, iv.Hi)
		}
	}
	return &IntervalTree{root: buildItv(valid, sortedUnique(pts)), n: len(valid)}
}

func buildItv(ivs []record.Interval, endpoints []int64) *itvNode {
	if len(ivs) == 0 || len(endpoints) == 0 {
		return nil
	}
	center := endpoints[len(endpoints)/2]
	n := &itvNode{center: center}
	var leftIvs, rightIvs []record.Interval
	for _, iv := range ivs {
		switch {
		case iv.Hi < center:
			leftIvs = append(leftIvs, iv)
		case iv.Lo > center:
			rightIvs = append(rightIvs, iv)
		default:
			n.byLo = append(n.byLo, iv)
		}
	}
	n.byHi = append([]record.Interval(nil), n.byLo...)
	sort.Slice(n.byLo, func(i, j int) bool { return n.byLo[i].Lo < n.byLo[j].Lo })
	sort.Slice(n.byHi, func(i, j int) bool { return n.byHi[i].Hi > n.byHi[j].Hi })
	n.left = buildItv(leftIvs, endpoints[:len(endpoints)/2])
	n.right = buildItv(rightIvs, endpoints[len(endpoints)/2+1:])
	return n
}

// Stab reports all intervals containing q.
func (t *IntervalTree) Stab(q int64) []record.Interval {
	var out []record.Interval
	for n := t.root; n != nil; {
		switch {
		case q < n.center:
			for _, iv := range n.byLo {
				if iv.Lo > q {
					break
				}
				out = append(out, iv)
			}
			n = n.left
		case q > n.center:
			for _, iv := range n.byHi {
				if iv.Hi < q {
					break
				}
				out = append(out, iv)
			}
			n = n.right
		default:
			out = append(out, n.byLo...)
			return out
		}
	}
	return out
}

// Len reports the number of indexed intervals.
func (t *IntervalTree) Len() int { return t.n }
