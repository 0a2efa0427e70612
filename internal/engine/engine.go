// Package engine is the storage core shared by every public index type:
// the backend (store, optional buffer pool, optional backing file), the
// metadata page that makes a file self-describing, and the kind registry
// that maps on-disk kind bytes to index openers.
//
// The package splits responsibilities with the public pathcache package as
// follows: engine owns construction, teardown, aggregate I/O accounting and
// persistence plumbing; pathcache owns the query structures and registers
// one registry descriptor per persisted kind.
package engine

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/obs"
)

// DefaultPageSize is used when Config.PageSize is zero.
const DefaultPageSize = 4096

// Metered is the store interface a backend needs: paging plus counters.
type Metered interface {
	disk.Pager
	Stats() disk.Stats
	NumPages() int
	ResetStats()
}

// Backend bundles the store every index builds on. The zero value is not
// usable; construct with New or Open.
type Backend struct {
	store Metered
	pager disk.Pager
	pool  *disk.BufferPool
	file  *disk.FileStore // non-nil when the backend is file-backed
	reg   *obs.Registry   // per-store metric registry; never nil
}

// Config selects the store behind a new backend.
type Config struct {
	// PageSize is the disk page size in bytes; zero selects
	// DefaultPageSize and negative values are rejected.
	PageSize int
	// BufferPoolPages, when positive, interposes a sharded LRU buffer pool
	// of that many frames; zero means no pool and negative values are
	// rejected.
	BufferPoolPages int
	// Path, when set, backs the store with a real file.
	Path string
	// File, when set, backs the store with a FileStore created on this
	// File — the hook crash harnesses use to interpose fault injectors.
	// Takes precedence over Path.
	File disk.File
	// WrapPager, when set, wraps the pager every structure sees — the
	// fault-injection hook.
	WrapPager func(disk.Pager) disk.Pager
	// Tracer, when set, receives OpStart/OpEnd events for every operation
	// recorded against this backend.
	Tracer obs.Tracer
	// StrictBounds arms the theorem-bound sentinels: operations whose
	// measured reads breach their kind's declared bound fail with an error
	// wrapping obs.ErrBoundExceeded.
	StrictBounds bool
	// BoundMaxRatio and BoundSlack tune the sentinel threshold
	// (reads > BoundMaxRatio·bound + BoundSlack); non-positive values keep
	// the obs defaults.
	BoundMaxRatio float64
	BoundSlack    float64
}

// New builds a backend from cfg. Errors are returned unwrapped; the public
// layer adds its package prefix.
func New(cfg Config) (*Backend, error) {
	if cfg.PageSize < 0 {
		return nil, fmt.Errorf("invalid PageSize %d: must be positive (zero selects the default %d)", cfg.PageSize, DefaultPageSize)
	}
	if cfg.BufferPoolPages < 0 {
		return nil, fmt.Errorf("invalid BufferPoolPages %d: must be positive (zero disables the pool)", cfg.BufferPoolPages)
	}
	ps := cfg.PageSize
	if ps == 0 {
		ps = DefaultPageSize
	}
	be := &Backend{reg: obs.NewRegistry()}
	be.reg.SetStrict(cfg.StrictBounds)
	be.reg.SetLimits(cfg.BoundMaxRatio, cfg.BoundSlack)
	if cfg.Tracer != nil {
		be.reg.SetTracer(cfg.Tracer)
	}
	switch {
	case cfg.File != nil:
		fs, err := disk.CreateFileStoreOn(cfg.File, ps)
		if err != nil {
			return nil, err
		}
		be.store, be.file = fs, fs
	case cfg.Path != "":
		fs, err := disk.CreateFileStore(cfg.Path, ps)
		if err != nil {
			return nil, err
		}
		be.store, be.file = fs, fs
	default:
		store, err := disk.NewStore(ps)
		if err != nil {
			return nil, err
		}
		be.store = store
	}
	be.pager = be.store
	if cfg.BufferPoolPages > 0 {
		bp, err := disk.NewBufferPool(be.store, cfg.BufferPoolPages)
		if err != nil {
			return nil, err
		}
		be.pager = bp
		be.pool = bp
	}
	if cfg.WrapPager != nil {
		be.pager = cfg.WrapPager(be.pager)
	}
	return be, nil
}

// Open attaches a backend to an existing index file. Like New, errors come
// back unwrapped.
func Open(path string) (*Backend, error) {
	return OpenWith(path, Config{})
}

// OpenWith attaches a backend to an existing index file with the runtime
// configuration New applies to fresh stores: buffer pool, pager wrapper,
// tracer and bound sentinels. The file's own page size rules, so
// cfg.PageSize, cfg.Path and cfg.File are ignored. The multi-store router
// opens each of its shards through this, so every shard gets its own pool
// and its own metric registry.
func OpenWith(path string, cfg Config) (*Backend, error) {
	if cfg.BufferPoolPages < 0 {
		return nil, fmt.Errorf("invalid BufferPoolPages %d: must be positive (zero disables the pool)", cfg.BufferPoolPages)
	}
	fs, err := disk.OpenFileStore(path)
	if err != nil {
		return nil, err
	}
	be := &Backend{store: fs, pager: fs, file: fs, reg: obs.NewRegistry()}
	be.reg.SetStrict(cfg.StrictBounds)
	be.reg.SetLimits(cfg.BoundMaxRatio, cfg.BoundSlack)
	if cfg.Tracer != nil {
		be.reg.SetTracer(cfg.Tracer)
	}
	if cfg.BufferPoolPages > 0 {
		bp, err := disk.NewBufferPool(fs, cfg.BufferPoolPages)
		if err != nil {
			if cerr := fs.Close(); cerr != nil {
				err = fmt.Errorf("%w (and closing store: %w)", err, cerr)
			}
			return nil, err
		}
		be.pager = bp
		be.pool = bp
	}
	if cfg.WrapPager != nil {
		be.pager = cfg.WrapPager(be.pager)
	}
	return be, nil
}

// Pager is the pager index structures build on and query through.
func (be *Backend) Pager() disk.Pager { return be.pager }

// OpPager returns a view of the backend's pager that attributes every page
// transfer it causes to c — the per-operation accounting hook. Views are
// cheap and safe for concurrent use (each operation should get its own
// counter).
func (be *Backend) OpPager(c *disk.Counter) disk.Pager {
	return disk.WithCounter(be.pager, c)
}

// Obs returns the backend's metric registry. Every index operation on this
// backend is recorded here; the public Metrics()/WithTracer APIs are views
// of it.
func (be *Backend) Obs() *obs.Registry { return be.reg }

// Stats snapshots the store-level aggregate I/O counters.
func (be *Backend) Stats() disk.Stats { return be.store.Stats() }

// NumPages reports the number of live pages in the store.
func (be *Backend) NumPages() int { return be.store.NumPages() }

// PoolStats snapshots the buffer pool's hit, miss and eviction counters;
// zero when no pool is interposed.
func (be *Backend) PoolStats() disk.PoolStats {
	if be.pool == nil {
		return disk.PoolStats{}
	}
	return be.pool.Stats()
}

// ResetStats zeroes the store's I/O counters (and the buffer pool's when
// one is configured).
func (be *Backend) ResetStats() {
	be.store.ResetStats()
	if be.pool != nil {
		be.pool.ResetStats()
	}
}

// Close flushes and closes a file-backed backend (no-op for in-memory).
// Errors are returned unwrapped.
func (be *Backend) Close() error {
	if be.pool != nil {
		if err := be.pool.Flush(); err != nil {
			return err
		}
	}
	if be.file != nil {
		return be.file.Close()
	}
	return nil
}
