// Package unusedallow_good carries only directives that excuse a finding,
// or that name an analyzer not run on this package.
package unusedallow_good

import (
	"sync"

	"pathcache/internal/disk"
)

type shard struct {
	mu    sync.Mutex
	pager disk.Pager
	buf   []byte
}

// fill excuses its I/O under the latch on the line above.
func (s *shard) fill(id disk.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//pcvet:allow lockheldio(s.mu.Lock) -- fixture mirror of the pool's single-page miss fill
	return s.pager.Read(id, s.buf)
}

// both excuses two findings on one line with one directive.
func (s *shard) both(id disk.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.pager.Write(id, s.buf) //pcvet:allow errwrapinjected,lockheldio(s.mu.Lock) -- fixture mirror of a best-effort write-back
}

// notRun names an analyzer this fixture's test does not run.
func (s *shard) notRun(id disk.PageID) error {
	//pcvet:allow commitprotocol -- another analyzer's concern
	return s.pager.Free(id)
}
