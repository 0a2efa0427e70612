package pathcache

import (
	"fmt"
	"os"

	"pathcache/internal/engine"
)

// Index is the interface every persistable kind satisfies — the view of an
// index file or sharded directory regardless of its kind. Open returns it.
// To query it, read Shape and use that shape's capability interface
// (TwoSidedQuerier, ThreeSidedQuerier, WindowQuerier or Stabber); to update
// it, ask Writable for its WriteTier. Concrete types are needed only for
// kind-specific features such as TwoSidedIndex.Scheme, LSMIndex.Levels or
// Sharded.Split.
type Index interface {
	// Kind reports the index's registry name, e.g. "twosided", "lsm" or
	// "shard".
	Kind() string
	// Shape reports the query shape the index answers. An lsm index
	// answers its base kind's (2-sided for every point base), a sharded
	// store its content kind's.
	Shape() Shape
	// Len reports the number of indexed records.
	Len() int
	// Pages reports the storage footprint in pages.
	Pages() int
	// Stats reports the cumulative I/O counters of the underlying store.
	Stats() Stats
	// Metrics snapshots the per-operation metric series recorded against
	// the index's store: read/write/cache-hit histograms and theorem-bound
	// ratios per (operation, worker).
	Metrics() Metrics
	// ResetStats zeroes the I/O counters.
	ResetStats()
	// Close flushes and closes the index.
	Close() error
}

// Open reopens any file-backed index, dispatching on the kind byte the
// file's metadata page records: the result is the same concrete type the
// matching OpenXxxIndex function returns. A directory dispatches to
// OpenSharded. Files whose build never committed yield an error wrapping
// ErrNoIndex.
func Open(path string) (Index, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		s, err := OpenSharded(path, nil)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	return openIndexWith(path, nil)
}

// openIndexWith is Open with per-open runtime options (buffer pool, pager
// wrapper, tracer, bound sentinels) — the seam the sharded router opens
// every shard through, so each shard gets its own pool and its own metric
// registry.
func openIndexWith(path string, opts *Options) (Index, error) {
	var cfg engine.Config
	if opts != nil {
		cfg = engine.Config{
			BufferPoolPages: opts.BufferPoolPages,
			WrapPager:       opts.WrapPager,
			StrictBounds:    opts.StrictBounds,
			BoundMaxRatio:   opts.BoundMaxRatio,
			BoundSlack:      opts.BoundSlack,
		}
		if opts.Tracer != nil {
			cfg.Tracer = tracerAdapter{t: opts.Tracer}
		}
	}
	be, err := engine.OpenWith(path, cfg)
	if err != nil {
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	kind, blob, err := be.ReadKind()
	if err != nil {
		be.Close()
		return nil, err
	}
	d, ok := engine.Lookup(kind)
	if !ok {
		be.Close()
		return nil, fmt.Errorf("pathcache: file holds unknown index kind %d", kind)
	}
	ix, err := d.Open(be, blob)
	if err != nil {
		be.Close()
		return nil, err
	}
	return ix.(Index), nil
}
