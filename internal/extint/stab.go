package extint

import (
	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// stabQuery carries the state of one stabbing query.
type stabQuery struct {
	t   *Tree
	p   disk.Pager
	q   int64
	out []record.Interval
	st  skeletal.QueryStats
}

// Stab reports every interval containing q, with the query's I/O profile.
// Cost: O(log_B n + t/B) for PathCached, O(log n + t/B) for Naive.
func (t *Tree) Stab(q int64) ([]record.Interval, skeletal.QueryStats, error) {
	return t.StabOn(t.pager, q)
}

// StabOn is Stab reading every page through p. The walker's page buffers
// go back to their pool when it returns; the answer is decoded by value.
func (t *Tree) StabOn(p disk.Pager, q int64) ([]record.Interval, skeletal.QueryStats, error) {
	if t.n == 0 {
		return nil, skeletal.QueryStats{}, nil
	}
	s := &stabQuery{t: t, p: p, q: q}
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
		return nil, s.st, err
	}
	s.st.PathPages = w.PagesLoaded()
	depth := len(path) - 1

	// Fat-leaf local intervals: filtered on containment.
	if head, count := getList(path[depth].Payload, offLocal); count > 0 {
		if err := s.scanFiltered(head); err != nil {
			return nil, s.st, err
		}
	}

	if t.variant == Naive {
		for j := 0; j < depth; j++ {
			if err := s.scanDirect(path, j); err != nil {
				return nil, s.st, err
			}
		}
	} else {
		cur := depth
		for {
			cs := (cur / t.segLen()) * t.segLen()
			// Merged caches over this chunk.
			if head, count := getList(path[cur].Payload, offLC); count > 0 {
				if _, err := s.scanLoAsc(head); err != nil {
					return nil, s.st, err
				}
			}
			if head, count := getList(path[cur].Payload, offRC); count > 0 {
				if _, err := s.scanHiDesc(head); err != nil {
					return nil, s.st, err
				}
			}
			// Tail continuation for ancestors whose first block was fully
			// inside the query — those tails are paid for.
			for j := cs; j < cur; j++ {
				if err := s.continueTail(path[j].Payload, wentLeft(path, j)); err != nil {
					return nil, s.st, err
				}
			}
			if cs == 0 {
				break
			}
			bj := cs - 1
			if err := s.scanDirect(path, bj); err != nil {
				return nil, s.st, err
			}
			cur = bj
		}
	}
	s.st.Results = len(s.out)
	return s.out, s.st, nil
}

// wentLeft reports whether the descent turned left at level j.
func wentLeft(path []skeletal.Node, j int) bool {
	return path[j+1].Ref == path[j].Left
}

// scanDirect reads an ancestor's relevant list (L when the path went left,
// R when it went right) from the beginning.
func (s *stabQuery) scanDirect(path []skeletal.Node, j int) error {
	p := path[j].Payload
	if wentLeft(path, j) {
		head, count := getList(p, offL1)
		if count == 0 {
			return nil
		}
		stopped, err := s.scanLoAsc(head)
		if err != nil || stopped {
			return err
		}
		if head2, count2 := getList(p, offL2); count2 > 0 {
			_, err = s.scanLoAsc(head2)
		}
		return err
	}
	head, count := getList(p, offR1)
	if count == 0 {
		return nil
	}
	stopped, err := s.scanHiDesc(head)
	if err != nil || stopped {
		return err
	}
	if head2, count2 := getList(p, offR2); count2 > 0 {
		_, err = s.scanHiDesc(head2)
	}
	return err
}

// continueTail scans an ancestor's list tail when the cached first block was
// entirely inside the query.
func (s *stabQuery) continueTail(p []byte, left bool) error {
	if left {
		if _, count := getList(p, offL1); count == 0 || firstLMaxLo(p) > s.q {
			return nil
		}
		if head, count := getList(p, offL2); count > 0 {
			_, err := s.scanLoAsc(head)
			return err
		}
		return nil
	}
	if _, count := getList(p, offR1); count == 0 || firstRMinHi(p) < s.q {
		return nil
	}
	if head, count := getList(p, offR2); count > 0 {
		_, err := s.scanHiDesc(head)
		return err
	}
	return nil
}

// scanLoAsc scans a Lo-ascending chain, reporting while Lo <= q. Intervals
// in these chains come from left-descent ancestors, whose entries all have
// Hi >= center > q, so Lo <= q implies containment.
func (s *stabQuery) scanLoAsc(head disk.PageID) (stopped bool, err error) {
	matched := 0
	pages, err := disk.ScanChain(s.p, record.IntervalSize, head, func(rec []byte) bool {
		iv := record.DecodeInterval(rec)
		if iv.Lo > s.q {
			stopped = true
			return false
		}
		s.out = append(s.out, iv)
		matched++
		return true
	})
	if err != nil {
		return false, err
	}
	s.st.Account(pages, matched, s.t.b)
	return stopped, nil
}

// scanHiDesc scans a Hi-descending chain, reporting while Hi >= q. Entries
// come from right-descent ancestors, whose intervals all have Lo <= center
// <= q, so Hi >= q implies containment.
func (s *stabQuery) scanHiDesc(head disk.PageID) (stopped bool, err error) {
	matched := 0
	pages, err := disk.ScanChain(s.p, record.IntervalSize, head, func(rec []byte) bool {
		iv := record.DecodeInterval(rec)
		if iv.Hi < s.q {
			stopped = true
			return false
		}
		s.out = append(s.out, iv)
		matched++
		return true
	})
	if err != nil {
		return false, err
	}
	s.st.Account(pages, matched, s.t.b)
	return stopped, nil
}

// scanFiltered scans a leaf-local chain with an explicit containment filter.
func (s *stabQuery) scanFiltered(head disk.PageID) error {
	matched := 0
	pages, err := disk.ScanChain(s.p, record.IntervalSize, head, func(rec []byte) bool {
		iv := record.DecodeInterval(rec)
		if iv.Contains(s.q) {
			s.out = append(s.out, iv)
			matched++
		}
		return true
	})
	if err != nil {
		return err
	}
	s.st.Account(pages, matched, s.t.b)
	return nil
}
