package disk

import (
	"errors"
	"fmt"
	"sync"
)

// ErrCrashed marks every operation at or after a simulated kill point. A
// structure driven over a crashing store must surface an error chain that
// errors.Is-matches it — the same propagation contract the FaultPager tests
// enforce for ErrInjected.
var ErrCrashed = errors.New("disk: simulated crash")

// CrashFile wraps a File and simulates the process being killed at an
// arbitrary write: the first `limit` WriteAt calls pass through untouched,
// the next one lands only a prefix of its bytes (a torn write — zero bytes
// for a clean kill between I/Os), and every operation from that point on
// fails with ErrCrashed, as if the process were gone. Reads before the crash
// pass through, so a build behaves normally right up to the kill.
//
// With limit < 0 the file never crashes and merely counts writes — the
// instrumentation pass a crash sweep uses to enumerate its kill points.
//
// CrashFile is safe for concurrent use, though a crash sweep is inherently a
// single-goroutine protocol.
type CrashFile struct {
	mu      sync.Mutex
	inner   File
	limit   int64 // writes allowed before the crash; <0 = count only
	torn    int   // bytes of the crashing write that still land
	writes  int64
	crashed bool
}

// NewCrashFile arms a crash after `limit` complete writes; the crashing
// write itself lands only its first `torn` bytes. limit < 0 disables the
// crash (counting mode).
func NewCrashFile(inner File, limit int64, torn int) *CrashFile {
	if torn < 0 {
		torn = 0
	}
	return &CrashFile{inner: inner, limit: limit, torn: torn}
}

// Writes reports how many WriteAt calls completed (plus the torn one, if the
// crash fired).
func (c *CrashFile) Writes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// Crashed reports whether the kill point was reached.
func (c *CrashFile) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// ReadAt implements File.
func (c *CrashFile) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, ErrCrashed
	}
	return c.inner.ReadAt(p, off)
}

// WriteAt implements File, firing the armed crash once `limit` writes have
// completed.
func (c *CrashFile) WriteAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, ErrCrashed
	}
	if c.limit >= 0 && c.writes >= c.limit {
		c.crashed = true
		n := c.torn
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			// The torn prefix reaches the platter; the error below is the
			// process dying before the rest of the buffer made it.
			if _, werr := c.inner.WriteAt(p[:n], off); werr != nil {
				return 0, fmt.Errorf("disk: torn write: %w", werr)
			}
		}
		c.writes++
		return n, ErrCrashed
	}
	c.writes++
	return c.inner.WriteAt(p, off)
}

// Size implements File.
func (c *CrashFile) Size() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, ErrCrashed
	}
	return c.inner.Size()
}

// Sync implements File.
func (c *CrashFile) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	return c.inner.Sync()
}

// Close implements File. Closing a crashed file fails like every other
// post-crash operation; the underlying image remains readable through
// whatever handle the harness kept (e.g. MemFile.Bytes).
func (c *CrashFile) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	//pcvet:allow lockheldio(c.mu.Lock) -- terminal teardown; the handle must not close twice under a racing crash check
	return c.inner.Close()
}

// CrashPager bundles the pieces of one crash-simulation run: an in-memory
// image, a CrashFile armed at a chosen kill point, and a FileStore built on
// top. Drive a build through Store until it fails with ErrCrashed, then call
// Reopen to get a fresh FileStore over the bytes that actually landed — the
// post-crash on-disk state — and check it either recovers or fails with a
// wrapped ErrCorrupt.
type CrashPager struct {
	// Store is the live, checksummed store the build runs against.
	Store *FileStore
	// Crash is the armed injector; Writes()/Crashed() expose its state.
	Crash *CrashFile
	mem   *MemFile
}

// NewCrashPager creates a fresh store over an in-memory image that will
// crash after `limit` writes, tearing the crashing write to `torn` bytes.
// limit < 0 yields a non-crashing, write-counting store (the instrumentation
// pass). When the crash fires during store creation itself the error is
// returned alongside a CrashPager with a nil Store, so the surviving image
// stays reachable through Image/Reopen — a crash sweep treats that kill point
// like any other.
func NewCrashPager(pageSize int, limit int64, torn int) (*CrashPager, error) {
	mem := NewMemFile()
	cf := NewCrashFile(mem, limit, torn)
	cp := &CrashPager{Crash: cf, mem: mem}
	fs, err := CreateFileStoreOn(cf, pageSize)
	if err != nil {
		return cp, err
	}
	cp.Store = fs
	return cp, nil
}

// Image returns a copy of the bytes that reached the backing image so far —
// after a crash, the exact surviving on-disk state.
func (cp *CrashPager) Image() []byte { return cp.mem.Bytes() }

// Reopen opens a fresh FileStore over a snapshot of the surviving image, the
// way a restarted process would.
func (cp *CrashPager) Reopen() (*FileStore, error) {
	return OpenFileStoreOn(NewMemFileFrom(cp.mem.Bytes()))
}
