// Package unusedallow_bad carries //pcvet:allow directives that excuse no
// finding of an analyzer that ran: on a line with nothing to excuse, too
// far above the finding (qualified and bare), and one half of a
// two-analyzer directive. Each is reported at the directive.
package unusedallow_bad

import (
	"sync"

	"pathcache/internal/disk"
)

type shard struct {
	mu    sync.Mutex
	pager disk.Pager
	buf   []byte
}

// evict carries an allow for I/O its caller's lock covers; it takes no
// lock itself, so the directive excuses nothing.
func (s *shard) evict(id disk.PageID) error {
	//pcvet:allow lockheldio(s.mu.Lock) -- write-back under the caller's latch // want `pcvet:allow lockheldio\(s\.mu\.Lock\) suppresses no finding`
	return s.pager.Write(id, s.buf)
}

// drifted has its allow two lines above the I/O it was written for, so the
// finding stands and the directive excuses nothing.
func (s *shard) drifted(id disk.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//pcvet:allow lockheldio(s.mu.Lock) -- written for the read below // want `pcvet:allow lockheldio\(s\.mu\.Lock\) suppresses no finding`
	s.buf = s.buf[:cap(s.buf)]
	return s.pager.Read(id, s.buf) // want `Pager\.Read performs pager I/O while s\.mu\.Lock is held`
}

// driftedBare is drifted for an analyzer without a qualifier.
func (s *shard) driftedBare(id disk.PageID) {
	//pcvet:allow errwrapinjected -- the page is a spare // want `pcvet:allow errwrapinjected suppresses no finding`
	s.buf = s.buf[:0]
	_ = s.pager.Write(id, s.buf) // want `error from Pager\.Write is assigned to _`
}

// half excuses the lock but not the dropped error it also names.
func (s *shard) half(id disk.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//pcvet:allow errwrapinjected,lockheldio(s.mu.Lock) -- fill under the latch // want `pcvet:allow errwrapinjected suppresses no finding`
	return s.pager.Read(id, s.buf)
}
