package extpst

import (
	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// pstQuery carries the state of one 2-sided query.
type pstQuery struct {
	t    *Tree
	p    disk.Pager
	w    *skeletal.Walker
	a, b int64
	out  []record.Point
	st   QueryStats
}

// Query reports every indexed point with x >= a and y >= b, together with
// the query's I/O profile. Cost: O(log_B n + t/B) for Basic and Segmented,
// O(log n + t/B) for IKO.
func (t *Tree) Query(a, b int64) ([]record.Point, QueryStats, error) {
	return QueryOwned(t, t.pager, a, b)
}

// QueryOn implements PointIndex: Query reading every page through p, with
// the walker, path and result kept in s.
func (t *Tree) QueryOn(p disk.Pager, a, b int64, s *Scratch) ([]record.Point, QueryStats, error) {
	if t.n == 0 {
		return nil, QueryStats{}, nil
	}
	s.w.Reset(t.skel, p)
	q := &pstQuery{t: t, p: p, w: &s.w, a: a, b: b, out: s.out[:0]}

	// Corner descent: go toward x=a while the subtree can still hold points
	// with y >= b.
	path, err := q.w.AppendDescent(s.path[:0], t.skel.Root(), func(n skeletal.Node) skeletal.Dir {
		if plMinY(n.Payload) < b {
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

	// The corner's own points are filtered on both coordinates.
	if err := q.scanBlock(corner.Payload); err != nil {
		return nil, q.st, err
	}
	// If the descent ended because the left child is absent (not because of
	// the y cut-off), the corner's right child is still a right sibling.
	if plMinY(corner.Payload) >= b && a <= corner.Key && corner.Right.Valid() {
		if err := q.explore(corner.Right); err != nil {
			return nil, q.st, err
		}
	}

	if t.scheme == IKO {
		err = q.walkUncached(path, depth)
	} else {
		err = q.walkCached(path, depth)
	}
	s.out = q.out
	if err != nil {
		return nil, q.st, err
	}
	q.st.Results = len(q.out)
	return q.out, q.st, nil
}

// wentLeft reports whether the path turned left at level j (so the right
// child of path[j] is a right sibling, entirely at x >= a).
func wentLeft(path []skeletal.Node, j int) bool {
	return path[j+1].Ref == path[j].Left
}

// walkUncached is the IKO baseline: read every ancestor block and every
// right-sibling block directly.
func (q *pstQuery) walkUncached(path []skeletal.Node, depth int) error {
	for j := depth - 1; j >= 0; j-- {
		if err := q.scanBlock(path[j].Payload); err != nil {
			return err
		}
		if wentLeft(path, j) && path[j].Right.Valid() {
			if err := q.explore(path[j].Right); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkCached serves ancestors from A-lists and siblings from S-lists,
// chunk by chunk from the corner to the root. Basic has a single chunk
// covering the whole path; Segmented pays one direct block (plus one sibling
// block) per chunk boundary — O(log_B n) of them.
func (q *pstQuery) walkCached(path []skeletal.Node, depth int) error {
	cur := depth
	for {
		// Lists at path[cur] cover levels [chunkStart(cur), cur-1].
		cs := q.t.chunkStart(cur)
		aHead, aCount := plAList(path[cur].Payload)
		if aCount > 0 {
			if err := q.scanAList(aHead); err != nil {
				return err
			}
		}
		sHead, sCount := plSList(path[cur].Payload)
		if sCount > 0 {
			if err := q.scanSList(sHead); err != nil {
				return err
			}
		}
		// Siblings whose points were all inside the query continue into
		// their subtrees; the decision uses the parent's payload (free).
		for j := cs; j < cur; j++ {
			if wentLeft(path, j) && path[j].Right.Valid() && plRightMinY(path[j].Payload) >= q.b {
				if err := q.exploreChildren(path[j].Right); err != nil {
					return err
				}
			}
		}
		if cs == 0 {
			return nil
		}
		// Chunk boundary: process the ancestor at cs-1 and its sibling
		// directly, then continue from there.
		bj := cs - 1
		if err := q.scanBlock(path[bj].Payload); err != nil {
			return err
		}
		if wentLeft(path, bj) && path[bj].Right.Valid() {
			if err := q.explore(path[bj].Right); err != nil {
				return err
			}
		}
		cur = bj
	}
}

// scanBlock reads a node's point block, reporting points inside the query.
func (q *pstQuery) scanBlock(payload []byte) error {
	head, count := plBlock(payload)
	if count == 0 {
		return nil
	}
	matched := 0
	pages, err := disk.ScanChain(q.p, record.PointSize, head, func(rec []byte) bool {
		v := record.PointView(rec)
		if v.X() >= q.a && v.Y() >= q.b {
			q.out = append(q.out, v.Point())
			matched++
		}
		return true
	})
	if err != nil {
		return err
	}
	q.account(pages, matched)
	return nil
}

// scanAList scans an x-descending ancestor cache, stopping at the first
// point left of the query. Every ancestor of the corner has minY >= b, so
// every reported point is inside the query.
func (q *pstQuery) scanAList(head disk.PageID) error {
	matched := 0
	pages, err := disk.ScanChain(q.p, record.PointSize, head, func(rec []byte) bool {
		v := record.PointView(rec)
		if v.X() < q.a {
			return false
		}
		if v.Y() >= q.b {
			q.out = append(q.out, v.Point())
			matched++
		}
		return true
	})
	if err != nil {
		return err
	}
	q.account(pages, matched)
	return nil
}

// scanSList scans a y-descending sibling cache, stopping at the first point
// below the query. Right siblings lie entirely at x >= a.
func (q *pstQuery) scanSList(head disk.PageID) error {
	matched := 0
	pages, err := disk.ScanChain(q.p, record.PointSize, head, func(rec []byte) bool {
		v := record.PointView(rec)
		if v.Y() < q.b {
			return false
		}
		if v.X() >= q.a {
			q.out = append(q.out, v.Point())
			matched++
		}
		return true
	})
	if err != nil {
		return err
	}
	q.account(pages, matched)
	return nil
}

// explore handles a subtree completely to the right of x=a: report the
// node's points above b and descend while the node was entirely inside the
// query (the descendants-pay-for-themselves argument of Section 3).
func (q *pstQuery) explore(ref skeletal.NodeRef) error {
	n, err := q.w.Node(ref)
	if err != nil {
		return err
	}
	// n.Payload aliases one of the walker's view buffers, which stay put
	// until the scratch is released — no defensive copy needed.
	payload := n.Payload
	left, right := n.Left, n.Right
	if err := q.scanBlock(payload); err != nil {
		return err
	}
	if plMinY(payload) < q.b {
		return nil
	}
	if left.Valid() {
		if err := q.explore(left); err != nil {
			return err
		}
	}
	if right.Valid() {
		return q.explore(right)
	}
	return nil
}

// exploreChildren descends into the children of a sibling whose own points
// were already reported from an S-list.
func (q *pstQuery) exploreChildren(ref skeletal.NodeRef) error {
	n, err := q.w.Node(ref)
	if err != nil {
		return err
	}
	left, right := n.Left, n.Right
	if left.Valid() {
		if err := q.explore(left); err != nil {
			return err
		}
	}
	if right.Valid() {
		return q.explore(right)
	}
	return nil
}

// account classifies list I/Os as useful (a full page of reported points)
// or wasteful, per Figure 3's accounting.
func (q *pstQuery) account(pages, matched int) {
	q.st.ListPages += pages
	full := matched / q.t.b
	q.st.UsefulIOs += full
	q.st.WastefulIOs += pages - full
}
