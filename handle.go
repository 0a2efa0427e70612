package pathcache

import (
	"errors"
	"fmt"
	"sync"
)

// ErrHandleClosed reports an operation against a Handle after Close.
var ErrHandleClosed = errors.New("pathcache: handle closed")

// Handle is a hot-swappable reference to an open index file: the
// snapshot/reload seam a long-running server builds on. Acquire pins the
// currently installed Index for the duration of one operation; Reload opens
// the file again (picking up an index rebuilt and renamed over the path)
// and atomically installs the fresh Index, so concurrent readers keep
// serving — each against the consistent snapshot it pinned — and the
// superseded Index is closed only once its last reader releases it.
//
// The same copy-on-write discipline the write tier uses for background
// compaction (DESIGN.md §11) applies here one level up: readers never see
// a half-swapped index, and a swap never blocks on readers.
type Handle struct {
	path string

	mu     sync.Mutex // guards cur/closed and ref bookkeeping, never held across I/O
	cur    *handleRef
	closed bool
	gen    uint64                // bumped on every successful Reload
	open   func() (Index, error) // Reload's opener; nil means Open(path)
}

// handleRef is one installed index plus the count of operations pinning it.
// The Handle itself holds one reference until the ref is retired (swapped
// out by Reload or Close); the releaser that drops the count to zero after
// retirement closes the index.
type handleRef struct {
	ix      Index
	refs    int
	retired bool
}

// OpenHandle opens path like Open, with per-open runtime options (a nil
// opts is Open's defaults), and wraps the result in a Handle whose Reload
// reopens with the same options. A file opens with opts' buffer pool,
// tracer and bound sentinels; a sharded directory gives each shard its
// own. Build-time fields (PageSize, Path, MemtableEntries) are ignored.
func OpenHandle(path string, opts *Options) (*Handle, error) {
	open := func() (Index, error) { return openWith(path, opts) }
	ix, err := open()
	if err != nil {
		return nil, err
	}
	h := NewHandle(path, ix)
	h.SetOpener(open)
	return h, nil
}

// NewHandle wraps an already-open index. path is what Reload reopens; a
// handle over an in-memory index passes "" and must not call Reload.
func NewHandle(path string, ix Index) *Handle {
	return &Handle{path: path, cur: &handleRef{ix: ix, refs: 1}}
}

// Path reports the file the handle reopens on Reload.
func (h *Handle) Path() string { return h.path }

// SetOpener replaces how Reload reopens the handle's path (Open by
// default) — the seam sharded stores use so a reloaded shard keeps its
// per-shard runtime options. Call before the handle is shared.
func (h *Handle) SetOpener(open func() (Index, error)) { h.open = open }

// Generation reports how many Reloads have been installed — a cheap way
// for callers to observe that a swap happened.
func (h *Handle) Generation() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gen
}

// Acquire pins the currently installed index and returns it with a release
// closure. The index stays valid — even across a concurrent Reload or
// Close — until release is called; release reports the index's Close error
// when this releaser was the last one out after a swap.
func (h *Handle) Acquire() (Index, func() error, error) {
	h.mu.Lock()
	if h.closed || h.cur == nil {
		h.mu.Unlock()
		return nil, nil, ErrHandleClosed
	}
	r := h.cur
	r.refs++
	h.mu.Unlock()
	return r.ix, func() error { return h.release(r) }, nil
}

// release drops one pin; the last releaser of a retired ref closes it.
func (h *Handle) release(r *handleRef) error {
	h.mu.Lock()
	r.refs--
	dead := r.retired && r.refs == 0
	h.mu.Unlock()
	if dead {
		return r.ix.Close()
	}
	return nil
}

// Reload reopens the handle's path and installs the fresh index. Readers
// that acquired before the swap finish against their pinned snapshot; the
// superseded index closes when its last reader releases. On any open error
// the installed index is left untouched.
func (h *Handle) Reload() error {
	if h.path == "" {
		return fmt.Errorf("pathcache: handle has no path to reload")
	}
	open := h.open
	if open == nil {
		open = func() (Index, error) { return Open(h.path) }
	}
	ix, err := open()
	if err != nil {
		return err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		ix.Close()
		return ErrHandleClosed
	}
	old := h.cur
	h.cur = &handleRef{ix: ix, refs: 1}
	h.gen++
	old.retired = true
	old.refs-- // the handle's own reference
	dead := old.refs == 0
	h.mu.Unlock()
	if dead {
		return old.ix.Close()
	}
	return nil
}

// Close retires the handle: new Acquires fail with ErrHandleClosed, and the
// installed index closes once every outstanding reader has released (the
// close error then surfaces from that release). When no readers are
// outstanding the index closes here and Close reports its error. Close is
// idempotent.
func (h *Handle) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	old := h.cur
	h.cur = nil
	old.retired = true
	old.refs--
	dead := old.refs == 0
	h.mu.Unlock()
	if dead {
		return old.ix.Close()
	}
	return nil
}
