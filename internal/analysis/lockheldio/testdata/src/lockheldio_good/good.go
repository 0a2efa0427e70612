// Package lockheldio_good exercises the approved shapes: release the latch
// before pager I/O, hand the I/O to an unlatched goroutine, or carry a
// //pcvet:allow directive naming the held lock set at a design-reviewed
// site.
package lockheldio_good

import (
	"sync"

	"pathcache/internal/disk"
)

type shard struct {
	mu    sync.Mutex
	pager disk.Pager
	cache map[disk.PageID][]byte
}

// lookupThenFill releases the latch before touching the pager and
// re-acquires it to publish the filled frame.
func (s *shard) lookupThenFill(id disk.PageID, buf []byte) error {
	s.mu.Lock()
	data, ok := s.cache[id]
	s.mu.Unlock()
	if ok {
		copy(buf, data)
		return nil
	}
	if err := s.pager.Read(id, buf); err != nil {
		return err
	}
	s.mu.Lock()
	dst := make([]byte, len(buf))
	copy(dst, buf)
	s.cache[id] = dst
	s.mu.Unlock()
	return nil
}

// sanctioned mirrors the pool's miss fill, with the mandatory justification.
func (s *shard) sanctioned(id disk.PageID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//pcvet:allow lockheldio(s.mu.Lock) -- fixture mirror of the pool's sanctioned single-page miss fill
	return s.pager.Read(id, buf)
}

type table struct {
	wmu, mu sync.RWMutex
	pager   disk.Pager
}

// readSide holds the read side for a whole query, with both locks of a
// nested set named in either order.
func (t *table) readSide(id disk.PageID, buf []byte) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	//pcvet:allow lockheldio(t.mu.RLock) -- fixture mirror of a reader holding the version for its whole query
	if err := t.pager.Read(id, buf); err != nil {
		return err
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	//pcvet:allow lockheldio(t.wmu.Lock, t.mu.RLock) -- fixture mirror of a nested writer section
	return t.pager.Read(id, buf)
}

// spawn hands the I/O to a goroutine, which does not inherit the latch.
func (s *shard) spawn(id disk.PageID, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		_ = s.pager.Read(id, buf)
	}()
}

// branchRelease unlocks on one path and performs I/O only there.
func (s *shard) branchRelease(id disk.PageID, buf []byte, hot bool) error {
	s.mu.Lock()
	if hot {
		copy(buf, s.cache[id])
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	return s.pager.Read(id, buf)
}

// level is a structure handed the pager for its reads; its other methods
// do no I/O.
type level interface {
	Len() int
	Query(p disk.Pager, a int64) ([]int64, error)
}

type tier struct {
	mu     sync.RWMutex
	levels []level
}

// size calls only pager-free interface methods under the lock.
func (t *tier) size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, lv := range t.levels {
		n += lv.Len()
	}
	return n
}
