// Package lockheldio_bad holds shard mutexes across pager I/O in every way
// the lockheldio analyzer models: direct Pager calls, package-local helpers
// that transitively reach the pager, deferred I/O, read locks, and an fsync
// through a func-valued config hook.
package lockheldio_bad

import (
	"sync"

	"pathcache/internal/disk"
)

type shard struct {
	mu    sync.Mutex
	pager disk.Pager
	buf   []byte
}

// readHeld blocks every other access to this shard behind a device read.
func (s *shard) readHeld(id disk.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pager.Read(id, s.buf) // want `Pager\.Read performs pager I/O while s\.mu\.Lock is held`
}

// fill performs I/O with no lock held — fine on its own, but it taints
// callers that invoke it under a latch.
func (s *shard) fill(id disk.PageID) error {
	data := make([]byte, s.pager.PageSize())
	return s.pager.Read(id, data)
}

// refresh calls the tainted helper while latched.
func (s *shard) refresh(id disk.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fill(id) // want `call to shard\.fill, which performs pager I/O or an fsync, while s\.mu\.Lock is held`
}

// deferredWrite registers the write-back after the unlock defer, so it still
// runs with the latch held.
func (s *shard) deferredWrite(id disk.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.pager.Write(id, s.buf) // want `Pager\.Write performs pager I/O while s\.mu\.Lock is held`
}

// scanHeld walks a whole overflow chain — many device reads — under the latch.
func (s *shard) scanHeld(head disk.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := disk.ScanChain(s.pager, 16, head, func(rec []byte) bool { return true }) // want `ScanChain performs pager I/O while s\.mu\.Lock is held`
	return err
}

type table struct {
	mu    sync.RWMutex
	pager disk.Pager
}

// lookup shows that a read lock serializes pager I/O just the same.
func (t *table) lookup(id disk.PageID, buf []byte) error {
	t.mu.RLock()
	err := t.pager.Read(id, buf) // want `Pager\.Read performs pager I/O while t\.mu\.RLock is held`
	t.mu.RUnlock()
	return err
}

type wal struct {
	mu  sync.Mutex
	cfg struct{ Sync func() error }
}

// sync reaches the fsync through a func-valued config hook.
func (w *wal) sync() error { return w.cfg.Sync() }

// ack fsyncs, directly and through the wrapper, with the lock held.
func (w *wal) ack() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.cfg.Sync(); err != nil { // want `w\.cfg\.Sync fsyncs while w\.mu\.Lock is held`
		return err
	}
	return w.sync() // want `call to wal\.sync, which performs pager I/O or an fsync, while w\.mu\.Lock is held`
}
