// Package pstcore holds the in-memory priority-search-tree construction
// shared by the external 2-sided (extpst) and 3-sided (ext3side)
// structures: each node keeps its subtree's top-B points by y and splits the
// remainder at the x-median, exactly the [IKO] decomposition of Figure 4.
package pstcore

import (
	"fmt"
	"math"
	"slices"

	"pathcache/internal/disk"
	"pathcache/internal/record"
)

// MemNode is one node of the in-memory PST used during construction.
type MemNode struct {
	Pts         []record.Point // top-B by y, stored y-descending
	Split       int64          // x-median of the remaining points
	SplitPt     record.Point   // full split point: Left holds exactly the points Less than it
	MinY        int64          // minimum y among Pts
	Left, Right *MemNode
}

// Build builds the PST over points sorted ascending by (X, Y, ID). Each node
// holds at most b points; children exist only when more than b points remain.
//
// Construction sorts once. A point is named by its position in sorted, so
// position order is the x-order record.CmpXYID defines. One stable radix
// sort of the positions on descending y gives the y-order, ties by
// position: exactly record.CmpYDesc. A node then works on its own slice of
// that y-order: its block is the first b entries, and a stable partition
// of the rest at the split position hands each child its y-order slice.
// The node's x-order is the range of positions it covers minus those its
// ancestors and itself took, which a scan of a taken bitmap finds. Every
// level of the tree is O(n) work, and no node sorts anything. Beyond the
// nodes themselves, Build holds two int32 positions and one bit per point.
func Build(sorted []record.Point, b int) *MemNode {
	if len(sorted) == 0 {
		return nil
	}
	if len(sorted) > math.MaxInt32 {
		panic(fmt.Sprintf("pstcore: %d points exceed the int32 position space", len(sorted)))
	}
	bd := &builder{
		pts:   sorted,
		b:     b,
		taken: make([]uint64, (len(sorted)+63)/64),
		tmp:   make([]int32, len(sorted)),
	}
	order := make([]int32, len(sorted))
	yDescOrder(sorted, order, bd.tmp)
	return bd.node(0, len(sorted), order)
}

// builder carries Build's shared state: taken marks the positions some
// node's block holds, and tmp is the radix sort's second buffer and then
// every partition's scratch.
type builder struct {
	pts   []record.Point
	b     int
	taken []uint64
	tmp   []int32
}

// node builds the subtree over positions [lo, hi) not yet taken; order
// lists exactly those positions in y-order.
func (bd *builder) node(lo, hi int, order []int32) *MemNode {
	if len(order) == 0 {
		return nil
	}
	k := min(len(order), bd.b)
	n := &MemNode{Pts: make([]record.Point, k)}
	for i, pos := range order[:k] {
		n.Pts[i] = bd.pts[pos]
	}
	n.MinY = n.Pts[k-1].Y
	if len(order) <= bd.b {
		split := bd.nthFree(lo, len(order)/2)
		n.Split, n.SplitPt = bd.pts[split].X, bd.pts[split]
		return n
	}
	for _, pos := range order[:k] {
		bd.taken[pos/64] |= 1 << (pos % 64)
	}
	rest := order[k:]
	mid := len(rest) / 2
	split := bd.nthFree(lo, mid)
	n.Split, n.SplitPt = bd.pts[split].X, bd.pts[split]

	// Stable partition of rest: the mid positions left of split stay in
	// place, in order; the others go through tmp to the tail.
	nl, nr := 0, 0
	for _, pos := range rest {
		if int(pos) < split {
			rest[nl] = pos
			nl++
		} else {
			bd.tmp[nr] = pos
			nr++
		}
	}
	copy(rest[nl:], bd.tmp[:nr])
	n.Left = bd.node(lo, split, rest[:nl])
	n.Right = bd.node(split, hi, rest[nl:])
	return n
}

// nthFree returns the position of the i-th (0-based) untaken position at
// or after lo. The caller guarantees it lies inside the node's range.
func (bd *builder) nthFree(lo, i int) int {
	for pos := lo; ; pos++ {
		if bd.taken[pos/64]&(1<<(pos%64)) == 0 {
			if i == 0 {
				return pos
			}
			i--
		}
	}
}

// yDescOrder fills order with the positions of pts stably sorted by
// descending Y, ties by position. It is an LSD radix sort over the eight
// bytes of a key that maps descending int64 onto ascending uint64, skipping
// every byte all keys share; tmp (len(pts) long) is its second buffer.
func yDescOrder(pts []record.Point, order, tmp []int32) {
	key := func(y int64) uint64 { return ^(uint64(y) ^ 1<<63) }
	var counts [8][256]int
	for _, p := range pts {
		k := key(p.Y)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	for i := range order {
		order[i] = int32(i)
	}
	first := key(pts[0].Y)
	src, dst := order, tmp
	for d := range counts {
		c := &counts[d]
		if c[byte(first>>(8*d))] == len(pts) {
			continue
		}
		sum := 0
		for i, v := range c {
			c[i] = sum
			sum += v
		}
		for _, pos := range src {
			digit := byte(key(pts[pos].Y) >> (8 * d))
			dst[c[digit]] = pos
			c[digit]++
		}
		src, dst = dst, src
	}
	if &src[0] != &order[0] {
		copy(order, src)
	}
}

// A Merger merges runs of points, each sorted by one comparator, in
// rounds of two-way merges: O(len·log runs) work, in two buffers it keeps
// and reuses across calls. The record comparators are total on distinct
// records, so a merge is the one sequence a full sort of the runs' union
// by the same comparator gives.
type Merger struct {
	buf, spare []record.Point
	ends       []int // ends of the merged segments in buf
	runs       [][]record.Point
}

// Merge returns the merge of runs by cmp. The result is read-only and
// valid until the next call; it may alias one of the runs.
func (m *Merger) Merge(runs [][]record.Point, cmp func(p, q record.Point) int) []record.Point {
	m.runs = m.runs[:0]
	for _, r := range runs {
		if len(r) > 0 {
			m.runs = append(m.runs, r)
		}
	}
	nonEmpty := m.runs
	switch len(nonEmpty) {
	case 0:
		return nil
	case 1:
		return nonEmpty[0]
	}
	// First round: merge the runs pairwise into buf.
	m.buf, m.ends = m.buf[:0], m.ends[:0]
	for i := 0; i < len(nonEmpty); i += 2 {
		if i+1 < len(nonEmpty) {
			m.buf = merge2(m.buf, nonEmpty[i], nonEmpty[i+1], cmp)
		} else {
			m.buf = append(m.buf, nonEmpty[i]...)
		}
		m.ends = append(m.ends, len(m.buf))
	}
	// Later rounds: merge adjacent segments of buf into spare, then swap.
	for len(m.ends) > 1 {
		m.spare = m.spare[:0]
		start, out := 0, 0
		for i := 0; i < len(m.ends); i += 2 {
			if i+1 < len(m.ends) {
				m.spare = merge2(m.spare, m.buf[start:m.ends[i]], m.buf[m.ends[i]:m.ends[i+1]], cmp)
				start = m.ends[i+1]
			} else {
				m.spare = append(m.spare, m.buf[start:m.ends[i]]...)
				start = m.ends[i]
			}
			m.ends[out] = len(m.spare)
			out++
		}
		m.ends = m.ends[:out]
		m.buf, m.spare = m.spare, m.buf
	}
	return m.buf
}

// merge2 appends to dst the merge of a and b, both sorted by cmp.
func merge2(dst, a, b []record.Point, cmp func(p, q record.Point) int) []record.Point {
	for len(a) > 0 && len(b) > 0 {
		if cmp(b[0], a[0]) < 0 {
			dst = append(dst, b[0])
			b = b[1:]
		} else {
			dst = append(dst, a[0])
			a = a[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
}

// SortAsc sorts points ascending by (X, Y, ID), the order Build expects.
func SortAsc(pts []record.Point) {
	slices.SortFunc(pts, record.CmpXYID)
}

// SortedAsc returns pts in ascending (X, Y, ID) order without mutating the
// input: already-sorted input is returned as-is (zero copies — the path the
// LSM and shard rebuild pipelines hit, since they feed merge-sorted runs),
// otherwise one copy is made and sorted. Builders treat the result as
// read-only, which is what makes the aliasing safe.
func SortedAsc(pts []record.Point) []record.Point {
	if slices.IsSortedFunc(pts, record.CmpXYID) {
		return pts
	}
	cp := slices.Clone(pts)
	SortAsc(cp)
	return cp
}

// WritePoints writes pts as one record chain on p, encoding each point
// straight into the chain's page buffer, and returns the chain head and its
// page count. It is disk.WriteChain(p, record.PointSize,
// record.EncodePoints(pts)) without the flattened copy.
func WritePoints(p disk.Pager, pts []record.Point) (disk.PageID, int, error) {
	w, err := disk.NewChainWriter(p, record.PointSize)
	if err != nil {
		return disk.InvalidPage, 0, err
	}
	var rec [record.PointSize]byte
	for _, pt := range pts {
		pt.Encode(rec[:])
		if err := w.Append(rec[:]); err != nil {
			return disk.InvalidPage, 0, err
		}
	}
	head, pages, _, err := w.Close()
	return head, pages, err
}
