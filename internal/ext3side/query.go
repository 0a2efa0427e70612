package ext3side

import (
	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// tsQuery carries the state of one 3-sided query.
type tsQuery struct {
	t         *Tree
	p         disk.Pager
	w         skeletal.Walker
	a1, a2, b int64
	out       []record.Point
	st        skeletal.QueryStats
}

// Query reports every indexed point with a1 <= x <= a2 and y >= b.
func (t *Tree) Query(a1, a2, b int64) ([]record.Point, skeletal.QueryStats, error) {
	return t.QueryOn(t.pager, a1, a2, b)
}

// QueryOn is Query reading every page through p. The walker's page buffers
// go back to their pool when it returns; the answer is decoded by value.
func (t *Tree) QueryOn(p disk.Pager, a1, a2, b int64) ([]record.Point, skeletal.QueryStats, error) {
	if t.n == 0 || a1 > a2 {
		return nil, skeletal.QueryStats{}, nil
	}
	q := &tsQuery{t: t, p: p, a1: a1, a2: a2, b: b}
	q.w.Reset(t.skel, p)
	defer q.w.Release()

	// Fork descent: follow the window while both bounds route the same way
	// and the subtree can still reach y >= b. Strict comparisons guarantee
	// that subtrees hanging off the fork path lie entirely outside the
	// window.
	fpath, err := q.w.Descend(t.skel.Root(), func(n skeletal.Node) skeletal.Dir {
		if plMinY(n.Payload) < b {
			return skeletal.Stop
		}
		if a2 < n.Key {
			return skeletal.Left
		}
		if a1 > n.Key {
			return skeletal.Right
		}
		return skeletal.Stop
	})
	if err != nil {
		return nil, q.st, err
	}
	q.st.PathPages = q.w.PagesLoaded()
	forkDepth := len(fpath) - 1
	fork := fpath[forkDepth]

	// Fork-path walk: the fork's own block directly, ancestors from AY
	// caches chunk by chunk, chunk-boundary blocks directly.
	if err := q.scanBlockWindow(fork.Payload); err != nil {
		return nil, q.st, err
	}
	cur := forkDepth
	for {
		cs := q.t.chunkStart(cur)
		if head, count := plList(fpath[cur].Payload, offAY); count > 0 {
			if err := q.scanYDescWindow(head); err != nil {
				return nil, q.st, err
			}
		}
		if cs == 0 {
			break
		}
		bj := cs - 1
		if err := q.scanBlockWindow(fpath[bj].Payload); err != nil {
			return nil, q.st, err
		}
		cur = bj
	}

	// The two below-fork walks run only when the descent stopped on a
	// routing split with the subtree still above b.
	if plMinY(fork.Payload) >= b && a1 <= fork.Key && a2 >= fork.Key {
		if fork.Left.Valid() {
			if err := q.sideWalk(fork.Left, forkDepth, true); err != nil {
				return nil, q.st, err
			}
		}
		if fork.Right.Valid() {
			if err := q.sideWalk(fork.Right, forkDepth, false); err != nil {
				return nil, q.st, err
			}
		}
	}
	q.st.Results = len(q.out)
	return q.out, q.st, nil
}

// sideWalk runs the 2-sided machinery inside one child subtree of the fork:
// leftSide=true descends toward a1 in the left subtree (right-hanging
// siblings are inside the window); leftSide=false mirrors toward a2.
func (q *tsQuery) sideWalk(start skeletal.NodeRef, forkDepth int, leftSide bool) error {
	path, err := q.w.Descend(start, func(n skeletal.Node) skeletal.Dir {
		if plMinY(n.Payload) < q.b {
			return skeletal.Stop
		}
		if leftSide {
			if q.a1 <= n.Key {
				return skeletal.Left
			}
			return skeletal.Right
		}
		if q.a2 < n.Key {
			return skeletal.Left
		}
		return skeletal.Right
	})
	if err != nil {
		return err
	}
	last := len(path) - 1
	corner := path[last]
	if err := q.scanBlockWindow(corner.Payload); err != nil {
		return err
	}
	// Descent ended on a missing child with the subtree still above b: the
	// other child is a sibling fully inside the window.
	if plMinY(corner.Payload) >= q.b {
		if leftSide && q.a1 <= corner.Key && corner.Right.Valid() {
			if err := q.explore(corner.Right); err != nil {
				return err
			}
		}
		if !leftSide && q.a2 >= corner.Key && corner.Left.Valid() {
			if err := q.explore(corner.Left); err != nil {
				return err
			}
		}
	}

	// Chunk walk upward, stopping at the fork (absolute depth of path[i]
	// is forkDepth+1+i; the fork itself belongs to the fork-path walk).
	cur := last
	for {
		abs := forkDepth + 1 + cur
		cs := q.t.chunkStart(abs)
		if cs <= forkDepth {
			// The chunk crosses the fork: its caches mix above-fork
			// content, so the below-fork remainder is read directly.
			for rel := 0; rel < cur; rel++ {
				if err := q.directAncestor(path, rel, leftSide); err != nil {
					return err
				}
			}
			return nil
		}
		if err := q.scanSideCaches(path[cur].Payload, leftSide); err != nil {
			return err
		}
		// Fully-inside siblings within the covered chunk continue into
		// their subtrees.
		for absJ := cs; absJ < abs; absJ++ {
			rel := absJ - forkDepth - 1
			if err := q.continueSibling(path, rel, leftSide); err != nil {
				return err
			}
		}
		bj := cs - 1
		if bj <= forkDepth {
			return nil
		}
		rel := bj - forkDepth - 1
		if err := q.directAncestor(path, rel, leftSide); err != nil {
			return err
		}
		cur = rel
	}
}

// scanSideCaches reads the corner/boundary node's ancestor and sibling
// caches for one side.
func (q *tsQuery) scanSideCaches(payload []byte, leftSide bool) error {
	if leftSide {
		if head, count := plList(payload, offAXD); count > 0 {
			if err := q.scanXDescFromA1(head); err != nil {
				return err
			}
		}
		if head, count := plList(payload, offRS); count > 0 {
			return q.scanYDescWindow(head)
		}
		return nil
	}
	if head, count := plList(payload, offAXA); count > 0 {
		if err := q.scanXAscToA2(head); err != nil {
			return err
		}
	}
	if head, count := plList(payload, offLS); count > 0 {
		return q.scanYDescWindow(head)
	}
	return nil
}

// directAncestor reads a path node's block directly and explores its
// window-side sibling.
func (q *tsQuery) directAncestor(path []skeletal.Node, rel int, leftSide bool) error {
	if err := q.scanBlockWindow(path[rel].Payload); err != nil {
		return err
	}
	if rel+1 >= len(path) {
		return nil
	}
	if leftSide {
		if path[rel+1].Ref == path[rel].Left && path[rel].Right.Valid() {
			return q.explore(path[rel].Right)
		}
		return nil
	}
	if path[rel+1].Ref == path[rel].Right && path[rel].Left.Valid() {
		return q.explore(path[rel].Left)
	}
	return nil
}

// continueSibling descends into a cached sibling's subtree when the sibling
// was entirely above b (its own points were served by the RS/LS cache).
func (q *tsQuery) continueSibling(path []skeletal.Node, rel int, leftSide bool) error {
	if rel+1 >= len(path) {
		return nil
	}
	var sibRef skeletal.NodeRef
	var sibMinY int64
	if leftSide {
		if path[rel+1].Ref != path[rel].Left || !path[rel].Right.Valid() {
			return nil
		}
		sibRef, sibMinY = path[rel].Right, plRightMinY(path[rel].Payload)
	} else {
		if path[rel+1].Ref != path[rel].Right || !path[rel].Left.Valid() {
			return nil
		}
		sibRef, sibMinY = path[rel].Left, plLeftMinY(path[rel].Payload)
	}
	if sibMinY < q.b {
		return nil
	}
	sib, err := q.w.Node(sibRef)
	if err != nil {
		return err
	}
	left, right := sib.Left, sib.Right
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

// explore reports a subtree known to lie inside the x-window: scan the block
// above b and recurse while the node was entirely above b.
func (q *tsQuery) explore(ref skeletal.NodeRef) error {
	n, err := q.w.Node(ref)
	if err != nil {
		return err
	}
	// n.Payload aliases the walker's private immutable view buffer, which
	// outlives pool eviction — no defensive copy needed.
	payload := n.Payload
	left, right := n.Left, n.Right
	if err := q.scanBlockWindow(payload); err != nil {
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

// scanBlockWindow reads a node block, reporting points inside the query.
func (q *tsQuery) scanBlockWindow(payload []byte) error {
	head, count := plList(payload, offBlock)
	if count == 0 {
		return nil
	}
	matched := 0
	pages, err := disk.ScanChain(q.p, record.PointSize, head, func(rec []byte) bool {
		v := record.PointView(rec)
		if x := v.X(); x >= q.a1 && x <= q.a2 && v.Y() >= q.b {
			q.out = append(q.out, v.Point())
			matched++
		}
		return true
	})
	if err != nil {
		return err
	}
	q.st.Account(pages, matched, q.t.b)
	return nil
}

// scanYDescWindow scans a y-descending chain while y >= b with the window
// filter; used for AY, RS and LS caches.
func (q *tsQuery) scanYDescWindow(head disk.PageID) error {
	matched := 0
	pages, err := disk.ScanChain(q.p, record.PointSize, head, func(rec []byte) bool {
		v := record.PointView(rec)
		if v.Y() < q.b {
			return false
		}
		if x := v.X(); x >= q.a1 && x <= q.a2 {
			q.out = append(q.out, v.Point())
			matched++
		}
		return true
	})
	if err != nil {
		return err
	}
	q.st.Account(pages, matched, q.t.b)
	return nil
}

// scanXDescFromA1 scans an x-descending ancestor cache while x >= a1; every
// covered ancestor is above b, and below-fork a1-side ancestors lie at
// x <= a2, so the window filter only trims defensively.
func (q *tsQuery) scanXDescFromA1(head disk.PageID) error {
	matched := 0
	pages, err := disk.ScanChain(q.p, record.PointSize, head, func(rec []byte) bool {
		v := record.PointView(rec)
		x := v.X()
		if x < q.a1 {
			return false
		}
		if x <= q.a2 && v.Y() >= q.b {
			q.out = append(q.out, v.Point())
			matched++
		}
		return true
	})
	if err != nil {
		return err
	}
	q.st.Account(pages, matched, q.t.b)
	return nil
}

// scanXAscToA2 mirrors scanXDescFromA1 for the a2 side.
func (q *tsQuery) scanXAscToA2(head disk.PageID) error {
	matched := 0
	pages, err := disk.ScanChain(q.p, record.PointSize, head, func(rec []byte) bool {
		v := record.PointView(rec)
		x := v.X()
		if x > q.a2 {
			return false
		}
		if x >= q.a1 && v.Y() >= q.b {
			q.out = append(q.out, v.Point())
			matched++
		}
		return true
	})
	if err != nil {
		return err
	}
	q.st.Account(pages, matched, q.t.b)
	return nil
}
