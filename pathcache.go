// Package pathcache is a Go implementation of "Path Caching: A Technique
// for Optimal External Searching" (Ramaswamy & Subramanian, PODS 1994).
//
// Path caching transforms classical main-memory search structures — segment
// trees, interval trees and priority search trees — into I/O-efficient
// external ones: the underfull lists along a search path, each of which
// would cost a wasteful page read, are coalesced into per-path caches so a
// query performs O(log_B n + t/B) page transfers, where B is the page
// capacity in records and t the output size.
//
// The package offers:
//
//   - TwoSidedIndex: static 2-sided range search {x >= a, y >= b} with the
//     paper's full scheme ladder (the IKO baseline, Lemma 3.1, Theorem 3.2,
//     and the recursive Theorems 4.3/4.4).
//   - DynamicIndex: the fully dynamic structure of Theorem 5.1 with
//     amortized O(log_B n) updates.
//   - ThreeSidedIndex: 3-sided search {a1 <= x <= a2, y >= b}
//     (Theorems 3.3/4.5), the primitive behind class-hierarchy indexing.
//   - StabbingIndex / DynamicStabbingIndex: interval management for
//     temporal and constraint databases via the diagonal-corner reduction.
//   - SegmentIndex and IntervalIndex: external segment and interval trees
//     (Theorems 3.4/3.5), each with a naive uncached variant for
//     comparison.
//   - RangeIndex: a B+-tree, the paper's optimal 1-dimensional baseline.
//
// All structures run against a simulated disk with exact I/O accounting, so
// the complexity claims can be observed directly: every index exposes
// Stats (page transfer counters) and Pages (storage footprint).
package pathcache

import (
	"fmt"
	"slices"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
	"pathcache/internal/record"
)

// Point is a point in the plane with an opaque tuple identifier. For
// interval data under the diagonal-corner reduction, X is the left endpoint
// and Y the right.
type Point struct {
	X, Y int64
	ID   uint64
}

// Interval is a closed interval [Lo, Hi] with an opaque tuple identifier.
type Interval struct {
	Lo, Hi int64
	ID     uint64
}

// Options configures the disk behind an index. Invalid values (a negative
// PageSize or BufferPoolPages, or a PageSize below the store's minimum) are
// rejected with an error by every constructor.
type Options struct {
	// PageSize is the disk page size in bytes (default 4096). The page
	// capacity B follows from it: B = (PageSize - 10) / 24 records for the
	// in-memory simulator. File-backed stores (Path set) reserve the last 4
	// bytes of every page for a checksum trailer, so there
	// B = (PageSize - 4 - 10) / 24, and PageSize must be at least 128.
	PageSize int
	// BufferPoolPages, when positive, interposes an LRU buffer pool of that
	// many frames. Leave zero to measure worst-case (cold) I/O per
	// operation, which is what the paper's bounds describe.
	BufferPoolPages int
	// Path, when set, backs the index with a real file instead of the
	// in-memory simulator. Static indexes built this way persist: reopen
	// them with the matching Open function. Call Close when done.
	Path string

	// MemtableEntries is the dynamic write tier's flush threshold: a
	// BuildDynamic index seals its memtable into a static level every this
	// many updates. Zero selects the tier's default; reopened indexes
	// inherit the threshold persisted in their manifest. Static index
	// constructors ignore it.
	MemtableEntries int

	// Tracer, when set, receives OpStart/OpEnd events for every recorded
	// operation (serial queries and stabs, each batch worker's queries,
	// builds). See also WithTracer.
	Tracer Tracer

	// StrictBounds arms the theorem-bound sentinels: any query-class
	// operation whose measured page reads exceed
	// BoundMaxRatio·bound + BoundSlack — where bound is the index kind's
	// registered theorem formula evaluated at the op's (n, B, t) — fails
	// with a *BoundError wrapping ErrBoundExceeded that carries the op's
	// trace. Meant for tests and benchmarks; leave off in production use.
	StrictBounds bool
	// BoundMaxRatio and BoundSlack tune the sentinel threshold;
	// non-positive values select the defaults (4 and 8).
	BoundMaxRatio float64
	BoundSlack    float64

	// WrapPager, when set, wraps the pager every structure routes its page
	// I/O through — the fault-injection seam the test batteries (including
	// internal/server's) drive a disk.FaultPager through. The wrapper sees
	// every read and write the index performs. Production use leaves it nil;
	// external module users cannot name the internal disk.Pager type and
	// should, too.
	WrapPager func(disk.Pager) disk.Pager

	// testFile, when set, backs the index with a FileStore created on this
	// File instead of a real on-disk file — the in-package hook the
	// crash-simulation harness uses to drive builds over an injector while
	// still exercising the whole public build path.
	testFile disk.File
}

// WithTracer returns a copy of opts (or a fresh Options when opts is nil)
// with t installed as the trace hook — the chaining form of setting
// Options.Tracer:
//
//	ix, err := pathcache.NewSegmentIndex(ivs, true, opts.WithTracer(t))
func (opts *Options) WithTracer(t Tracer) *Options {
	var out Options
	if opts != nil {
		out = *opts
	}
	out.Tracer = t
	return &out
}

// DefaultPageSize is used when Options.PageSize is zero.
const DefaultPageSize = engine.DefaultPageSize

// Stats is a snapshot of the I/O counters of an index's underlying store.
type Stats struct {
	Reads  int64 // pages read
	Writes int64 // pages written
	Pages  int   // live pages (storage footprint)
	// CacheHits and Evictions are the buffer pool's (Options.
	// BufferPoolPages): page accesses it absorbed, and frames it dropped
	// to make room. Both stay zero without a pool; evictions that keep
	// climbing under a steady workload mean its working set has outgrown
	// the pool.
	CacheHits int64
	Evictions int64
}

// IOProfile describes one query's I/O behaviour using the paper's
// accounting (Figure 3): a data-page read is useful when it returns a full
// page of reported records and wasteful otherwise.
type IOProfile struct {
	PathPages   int // index/skeleton pages read to locate the search path
	ListPages   int // data pages read from lists, blocks and caches
	UsefulIOs   int
	WastefulIOs int
	Results     int

	// Reads and Writes are the page transfers the store performed for this
	// operation, measured by an op-scoped counter rather than a global
	// diff, so they stay exact when other operations run concurrently.
	// Under a buffer pool only real store I/O counts — cache hits cost
	// zero, so Reads can be below PathPages+ListPages.
	Reads  int64
	Writes int64
	// CacheHits counts the page accesses a buffer pool absorbed for this
	// operation (always zero without a pool).
	CacheHits int64
	// Bound is the kind's theorem I/O bound in page reads evaluated at
	// this operation's (n, B, t), and BoundRatio is Reads/Bound — the
	// number the sentinels police. See DESIGN.md §10.
	Bound      float64
	BoundRatio float64
}

// core is the storage half embedded in every index type: the engine
// backend plus the store-facing methods all indexes share. Embedding it
// promotes Close, Stats and ResetStats, so the index types only implement
// what is specific to their structure.
type core struct {
	be *engine.Backend
}

func newCore(opts *Options) (core, error) {
	var cfg engine.Config
	if opts != nil {
		cfg = engine.Config{
			PageSize:        opts.PageSize,
			BufferPoolPages: opts.BufferPoolPages,
			Path:            opts.Path,
			File:            opts.testFile,
			WrapPager:       opts.WrapPager,
			StrictBounds:    opts.StrictBounds,
			BoundMaxRatio:   opts.BoundMaxRatio,
			BoundSlack:      opts.BoundSlack,
		}
		if opts.Tracer != nil {
			cfg.Tracer = tracerAdapter{t: opts.Tracer}
		}
	}
	be, err := engine.New(cfg)
	if err != nil {
		return core{}, fmt.Errorf("pathcache: %w", err)
	}
	return core{be: be}, nil
}

// backend exposes the engine backend to in-package composites: the sharded
// router reaches each shard's metric registry and store counters through
// it. Every index type embeds core, so any Index opened in-package can be
// asserted to the backender seam.
func (c core) backend() *engine.Backend { return c.be }

// Stats reports the cumulative I/O counters of the underlying store.
func (c core) Stats() Stats {
	s, ps := c.be.Stats(), c.be.PoolStats()
	return Stats{Reads: s.Reads, Writes: s.Writes, Pages: c.be.NumPages(), CacheHits: ps.Hits, Evictions: ps.Evictions}
}

// ResetStats zeroes the I/O counters (and the buffer pool's statistics when
// one is configured).
func (c core) ResetStats() { c.be.ResetStats() }

// Close flushes and closes a file-backed index (no-op for in-memory ones).
func (c core) Close() error {
	if err := c.be.Close(); err != nil {
		return fmt.Errorf("pathcache: %w", err)
	}
	return nil
}

// B reports the page capacity in records for the given page size — the B of
// every bound in the paper.
func B(pageSize int) int {
	return disk.ChainCap(pageSize, record.PointSize)
}

// conversions between public and internal record types.

func toRec(p Point) record.Point { return record.Point(p) }

func toRecPoints(pts []Point) []record.Point {
	out := make([]record.Point, len(pts))
	for i, p := range pts {
		out[i] = record.Point(p)
	}
	return out
}

func fromRecPoints(pts []record.Point) []Point {
	return appendRecPoints(make([]Point, 0, len(pts)), pts)
}

// appendRecPoints appends pts to dst, growing it once by len(pts).
func appendRecPoints(dst []Point, pts []record.Point) []Point {
	n := len(dst)
	dst = slices.Grow(dst, len(pts))[:n+len(pts)]
	for i, p := range pts {
		dst[n+i] = Point(p)
	}
	return dst
}

func toRecIntervals(ivs []Interval) []record.Interval {
	out := make([]record.Interval, len(ivs))
	for i, iv := range ivs {
		out[i] = record.Interval(iv)
	}
	return out
}

func fromRecIntervals(ivs []record.Interval) []Interval {
	return appendRecIntervals(make([]Interval, 0, len(ivs)), ivs)
}

// appendRecIntervals appends ivs to dst, growing it once by len(ivs).
func appendRecIntervals(dst []Interval, ivs []record.Interval) []Interval {
	n := len(dst)
	dst = slices.Grow(dst, len(ivs))[:n+len(ivs)]
	for i, iv := range ivs {
		dst[n+i] = Interval(iv)
	}
	return dst
}
