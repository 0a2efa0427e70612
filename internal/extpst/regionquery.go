package extpst

import (
	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// regionQuery carries the state of one 2-sided query over a region tree.
type regionQuery struct {
	rt   *regionTree
	p    disk.Pager
	w    *skeletal.Walker
	a, b int64
	out  []record.Point
	st   QueryStats
}

// Query implements PointIndex for one level of the hierarchy.
func (rt *regionTree) Query(a, b int64) ([]record.Point, QueryStats, error) {
	return QueryOwned(rt, rt.pager, a, b)
}

// QueryOn implements PointIndex for one level of the hierarchy, following
// Section 4.1: locate the corner region, query its second-level structure,
// serve ancestors/siblings from the A/S caches with X/Y-list continuation,
// and traverse descendants of fully-contained regions via their Y-lists.
func (rt *regionTree) QueryOn(p disk.Pager, a, b int64, s *Scratch) ([]record.Point, QueryStats, error) {
	s.w.Reset(rt.skel, p)
	q := &regionQuery{rt: rt, p: p, w: &s.w, a: a, b: b, out: s.out[:0]}
	path, err := q.w.AppendDescent(s.path[:0], rt.skel.Root(), func(n skeletal.Node) skeletal.Dir {
		if rpMinY(n.Payload) < b {
			return skeletal.Stop
		}
		if a <= n.Key {
			return skeletal.Left
		}
		return skeletal.Right
	})
	s.path = path
	if err != nil {
		return nil, q.st, err
	}
	q.st.PathPages = q.w.PagesLoaded()
	depth := len(path) - 1
	corner := path[depth]

	// The corner region is resolved by its own second-level structure.
	// The sub-query runs on its own scratch: this one holds the region
	// path, whose payloads the rest of the query still reads.
	sub, subScratch := rt.subs[rpRegionIdx(corner.Payload)], GetScratch()
	pts, sst, err := sub.QueryOn(p, a, b, subScratch)
	q.out = append(q.out, pts...)
	subScratch.Release()
	if err != nil {
		return nil, q.st, err
	}
	q.st.ListPages += sst.ListPages + sst.PathPages
	q.st.UsefulIOs += sst.UsefulIOs
	q.st.WastefulIOs += sst.WastefulIOs

	// Descent that ended on a missing left child: the right child remains a
	// right sibling.
	if rpMinY(corner.Payload) >= b && a <= corner.Key && corner.Right.Valid() {
		if err := q.exploreRegion(corner.Right); err != nil {
			return nil, q.st, err
		}
	}

	cur := depth
	for {
		cs := q.chunkStart(cur)
		if err := q.scanCaches(path[cur].Payload); err != nil {
			return nil, q.st, err
		}
		for j := cs; j < cur; j++ {
			if err := q.continueAncestor(path[j].Payload); err != nil {
				return nil, q.st, err
			}
			if wentLeft(path, j) && path[j].Right.Valid() {
				if err := q.continueSibling(path[j], path[j].Right); err != nil {
					return nil, q.st, err
				}
			}
		}
		if cs == 0 {
			break
		}
		bj := cs - 1
		// Chunk boundary: the ancestor and its sibling are handled directly.
		if err := q.scanAncestorDirect(path[bj].Payload); err != nil {
			return nil, q.st, err
		}
		if wentLeft(path, bj) && path[bj].Right.Valid() {
			if err := q.exploreRegion(path[bj].Right); err != nil {
				return nil, q.st, err
			}
		}
		cur = bj
	}
	s.out = q.out
	q.st.Results = len(q.out)
	return q.out, q.st, nil
}

func (q *regionQuery) chunkStart(depth int) int {
	return (depth / q.rt.segLen) * q.rt.segLen
}

// scanCaches reads the corner-or-boundary node's A and S caches.
func (q *regionQuery) scanCaches(payload []byte) error {
	if head, count := rpList(payload, offA); count > 0 {
		if _, err := q.scanXDesc(head); err != nil {
			return err
		}
	}
	if head, count := rpList(payload, offS); count > 0 {
		if _, err := q.scanYDesc(head, false); err != nil {
			return err
		}
	}
	return nil
}

// continueAncestor scans an ancestor's X tail when its entire first X block
// (already served by the A cache) was inside the query.
func (q *regionQuery) continueAncestor(payload []byte) error {
	if rpFirstXMin(payload) < q.a {
		return nil
	}
	if head, count := rpList(payload, offX2); count > 0 {
		if _, err := q.scanXDesc(head); err != nil {
			return err
		}
	}
	return nil
}

// continueSibling scans a sibling region's Y tail when its first Y block
// (served by the S cache) was fully inside, and descends into its children
// when the whole region is inside.
func (q *regionQuery) continueSibling(parent skeletal.Node, sibRef skeletal.NodeRef) error {
	if rpRightFirstYMin(parent.Payload) < q.b {
		return nil
	}
	sib, err := q.w.Node(sibRef)
	if err != nil {
		return err
	}
	payload := sib.Payload // walker view buffers are private and immutable
	left, right := sib.Left, sib.Right
	if head, count := rpList(payload, offY2); count > 0 {
		if _, err := q.scanYDesc(head, false); err != nil {
			return err
		}
	}
	if rpMinY(payload) >= q.b {
		if left.Valid() {
			if err := q.exploreRegion(left); err != nil {
				return err
			}
		}
		if right.Valid() {
			return q.exploreRegion(right)
		}
	}
	return nil
}

// scanAncestorDirect reads a chunk-boundary ancestor's X lists in full
// (while inside the query); every ancestor point has y >= b.
func (q *regionQuery) scanAncestorDirect(payload []byte) error {
	head1, count1 := rpList(payload, offX1)
	if count1 == 0 {
		return nil
	}
	stopped, err := q.scanXDesc(head1)
	if err != nil || stopped {
		return err
	}
	if head2, count2 := rpList(payload, offX2); count2 > 0 {
		_, err = q.scanXDesc(head2)
	}
	return err
}

// exploreRegion handles a region entirely right of x=a that is not covered
// by any cache: scan its Y-lists top-down and recurse while fully inside.
func (q *regionQuery) exploreRegion(ref skeletal.NodeRef) error {
	n, err := q.w.Node(ref)
	if err != nil {
		return err
	}
	payload := n.Payload // walker view buffers are private and immutable
	left, right := n.Left, n.Right
	head1, count1 := rpList(payload, offY1)
	if count1 > 0 {
		stopped, err := q.scanYDesc(head1, true)
		if err != nil {
			return err
		}
		if !stopped {
			if head2, count2 := rpList(payload, offY2); count2 > 0 {
				if _, err := q.scanYDesc(head2, true); err != nil {
					return err
				}
			}
		}
	}
	if rpMinY(payload) < q.b {
		return nil
	}
	if left.Valid() {
		if err := q.exploreRegion(left); err != nil {
			return err
		}
	}
	if right.Valid() {
		return q.exploreRegion(right)
	}
	return nil
}

// scanXDesc scans an x-descending chain, reporting until the first point
// with x < a. Callers guarantee y >= b for every point in the chain.
// It reports whether the scan stopped early.
func (q *regionQuery) scanXDesc(head disk.PageID) (stopped bool, err error) {
	matched := 0
	pages, err := disk.ScanChain(q.p, record.PointSize, head, func(rec []byte) bool {
		v := record.PointView(rec)
		if v.X() < q.a {
			stopped = true
			return false
		}
		if v.Y() >= q.b {
			q.out = append(q.out, v.Point())
			matched++
		}
		return true
	})
	if err != nil {
		return false, err
	}
	q.account(pages, matched)
	return stopped, nil
}

// scanYDesc scans a y-descending chain, reporting until the first point with
// y < b. filterX additionally checks x >= a (defensive; sibling and
// descendant regions lie entirely at x >= a).
func (q *regionQuery) scanYDesc(head disk.PageID, filterX bool) (stopped bool, err error) {
	matched := 0
	pages, err := disk.ScanChain(q.p, record.PointSize, head, func(rec []byte) bool {
		v := record.PointView(rec)
		if v.Y() < q.b {
			stopped = true
			return false
		}
		if !filterX || v.X() >= q.a {
			q.out = append(q.out, v.Point())
			matched++
		}
		return true
	})
	if err != nil {
		return false, err
	}
	q.account(pages, matched)
	return stopped, nil
}

func (q *regionQuery) account(pages, matched int) {
	q.st.ListPages += pages
	full := matched / q.rt.b
	q.st.UsefulIOs += full
	q.st.WastefulIOs += pages - full
}
