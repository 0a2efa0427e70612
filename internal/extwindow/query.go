package extwindow

import (
	"encoding/binary"

	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// winQuery carries the state of one window query.
type winQuery struct {
	t              *Tree
	p              disk.Pager
	x1, x2, y1, y2 int64
	w              skeletal.Walker
	out            []record.Point
	st             skeletal.QueryStats
}

// Query reports every point with x1 <= x <= x2 and y1 <= y <= y2.
func (t *Tree) Query(x1, x2, y1, y2 int64) ([]record.Point, skeletal.QueryStats, error) {
	return t.QueryOn(t.pager, x1, x2, y1, y2)
}

// QueryOn is Query reading every page through p. The walker's page buffers
// go back to their pool when it returns; the answer is decoded by value.
func (t *Tree) QueryOn(p disk.Pager, x1, x2, y1, y2 int64) ([]record.Point, skeletal.QueryStats, error) {
	if t.n == 0 || x1 > x2 || y1 > y2 {
		return nil, skeletal.QueryStats{}, nil
	}
	q := &winQuery{t: t, p: p, x1: x1, x2: x2, y1: y1, y2: y2}
	q.w.Reset(t.skel, p)
	defer q.w.Release()
	// Fork descent: internal nodes always have two children, so the walk
	// ends at a leaf or at the first node whose split lies in [x1, x2].
	fpath, err := q.w.Descend(t.skel.Root(), func(n skeletal.Node) skeletal.Dir {
		if n.IsLeaf() {
			return skeletal.Stop
		}
		if x2 < n.Key {
			return skeletal.Left
		}
		if x1 > n.Key {
			return skeletal.Right
		}
		return skeletal.Stop
	})
	if err != nil {
		return nil, q.st, err
	}
	q.st.PathPages = q.w.PagesLoaded()
	fork := fpath[len(fpath)-1]

	if fork.IsLeaf() {
		if err := q.scanFiltered(fork.Payload); err != nil {
			return nil, q.st, err
		}
		q.st.Results = len(q.out)
		return q.out, q.st, nil
	}
	// Left path toward x1: right children hanging off left turns are
	// canonical (their x-span lies inside [x1, x2]).
	if err := q.sidePath(fork.Left, true); err != nil {
		return nil, q.st, err
	}
	// Right path toward x2: mirror.
	if err := q.sidePath(fork.Right, false); err != nil {
		return nil, q.st, err
	}
	q.st.Results = len(q.out)
	return q.out, q.st, nil
}

// sidePath walks one boundary path, reporting canonical subtrees via their
// y-lists and the terminal leaf via a filtered scan.
func (q *winQuery) sidePath(ref skeletal.NodeRef, leftSide bool) error {
	for ref.Valid() {
		n, err := q.w.Node(ref)
		if err != nil {
			return err
		}
		payload := n.Payload // walker view buffers are private and immutable
		left, right, key, isLeaf := n.Left, n.Right, n.Key, n.IsLeaf()
		if isLeaf {
			return q.scanFiltered(payload)
		}
		if leftSide {
			if q.x1 > key {
				ref = right
				continue
			}
			// Going left: the right child is canonical.
			if err := q.scanCanonical(right); err != nil {
				return err
			}
			ref = left
		} else {
			if q.x2 < key {
				ref = left
				continue
			}
			// Going right: the left child is canonical.
			if err := q.scanCanonical(left); err != nil {
				return err
			}
			ref = right
		}
	}
	return nil
}

// scanCanonical reports the [y1, y2] slice of a canonical subtree's y-list,
// entering at the directory-located page.
func (q *winQuery) scanCanonical(ref skeletal.NodeRef) error {
	n, err := q.w.Node(ref)
	if err != nil {
		return err
	}
	head, count := plYList(n.Payload)
	dirHead, _ := plDir(n.Payload)
	if count == 0 {
		return nil
	}
	// Locate the last page whose first y is <= y1; start there.
	start := head
	pages, err := disk.ScanChain(q.p, dirRecSize, dirHead, func(rec []byte) bool {
		page := disk.PageID(binary.LittleEndian.Uint64(rec[0:]))
		firstY := int64(binary.LittleEndian.Uint64(rec[8:]))
		if firstY > q.y1 {
			return false
		}
		start = page
		return true
	})
	if err != nil {
		return err
	}
	q.st.ListPages += pages

	matched := 0
	pages, err = disk.ScanChain(q.p, record.PointSize, start, func(rec []byte) bool {
		v := record.PointView(rec)
		y := v.Y()
		if y > q.y2 {
			return false
		}
		if x := v.X(); y >= q.y1 && x >= q.x1 && x <= q.x2 {
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

// scanFiltered reads a boundary leaf's full list with both filters.
func (q *winQuery) scanFiltered(payload []byte) error {
	head, count := plYList(payload)
	if count == 0 {
		return nil
	}
	matched := 0
	pages, err := disk.ScanChain(q.p, record.PointSize, head, func(rec []byte) bool {
		v := record.PointView(rec)
		y := v.Y()
		if y > q.y2 {
			return false
		}
		if x := v.X(); y >= q.y1 && x >= q.x1 && x <= q.x2 {
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
