package pathcache

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"pathcache/internal/engine"
	"pathcache/internal/obs"
	"pathcache/internal/shard"
)

// This file is the horizontal scale-out layer: a Sharded store owns N
// single-store indexes — separate files, separate buffer pools, separate
// metric registries — behind a range partition of the routing-key space
// (point X, interval Lo). Queries scatter to the shards their predicate can
// touch, run against each shard's own engine, and gather in canonical
// order; the shard map persists in a manifest file committed with the same
// write-all-new → flip → free-old discipline every other durable structure
// in the repository uses (DESIGN.md §8, §13).

// kindShard is the registry kind byte of the shard-map manifest.
const kindShard = shard.Kind

const shardKindName = shard.KindName

func init() {
	engine.Register(engine.Descriptor{Kind: kindShard, Name: shardKindName, Open: openShardMap, Bound: obs.LogBBound})
}

// openShardMap is the registered opener for a shard-map manifest file. A
// sharded store is a directory — the manifest alone cannot reach the shard
// files — so after validating the map (surfacing torn or flipped bytes as
// ErrCorrupt) the opener directs callers to the directory API.
func openShardMap(be *engine.Backend, blob []byte) (any, error) {
	if _, err := shard.LoadBlob(be, blob); err != nil {
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	return nil, errors.New("pathcache: file is a shard-map manifest; open its directory with OpenSharded")
}

// ShardPlan configures how a sharded build partitions the routing-key
// space (point X, interval Lo).
type ShardPlan struct {
	// Shards is the desired shard count (>= 1): the split keys become the
	// quantiles of the routing keys, so shards hold roughly equal record
	// counts even under skew. Concentrated distributions can yield fewer
	// shards than asked for. Ignored when Splits is set.
	Shards int
	// Splits, when set, are explicit strictly-ascending split keys: shard i
	// covers routing keys in [Splits[i-1], Splits[i]), unbounded at the
	// ends. Every shard of a static kind must end up non-empty.
	Splits []int64
	// Scheme selects the flat 2-sided scheme for "twosided" and "stabbing"
	// shards; the recursive schemes keep in-memory tables and cannot be
	// reopened, so they are rejected.
	Scheme Scheme
	// Uncached builds "segment" and "interval" shards without path caching.
	Uncached bool
	// Base is the base kind of "lsm" shards (default "twosided").
	Base string
}

// Sharded is a horizontally partitioned store: N independent single-store
// indexes of one kind behind a range-partitioned key space. Queries
// scatter to the shards whose key range intersects the predicate and
// gather in canonical order; updates (for "lsm" shards) route to exactly
// the owning shard. Shard membership is copy-on-write — Split and
// ReloadShard install fresh state while in-flight readers finish against
// the snapshot they pinned, so readers never block.
type Sharded struct {
	dir  string
	opts *Options // per-shard runtime options (pool, sentinels, tracer)
	kind byte     // content kind byte of every shard
	base byte     // lsm base kind byte; zero for static kinds

	be     *engine.Backend // shard-map manifest store
	router *shard.Router

	mu     sync.Mutex // serializes updates, splits, reloads and Close
	closed bool
}

// backender is the in-package seam to an index's engine backend; every
// concrete index type satisfies it by embedding core.
type backender interface{ backend() *engine.Backend }

// shardFileName names shard files by an ever-increasing sequence number so
// a split never reuses a live shard's name.
func shardFileName(seq uint64) string { return fmt.Sprintf("shard-%04d.pc", seq) }

// cloneShardOptions copies opts for per-shard reuse, dropping the
// build-target fields that are per-file.
func cloneShardOptions(opts *Options) *Options {
	if opts == nil {
		return nil
	}
	o := *opts
	o.Path, o.testFile = "", nil
	return &o
}

// shardFileOptions is the per-shard build variant of opts targeting path.
func shardFileOptions(opts *Options, path string) *Options {
	o := cloneShardOptions(opts)
	if o == nil {
		o = &Options{}
	}
	o.Path = path
	return o
}

func kindByName(name string) (engine.Descriptor, bool) {
	for _, d := range engine.Kinds() {
		if d.Name == name {
			return d, true
		}
	}
	return engine.Descriptor{}, false
}

// shardPartition resolves the plan's split keys over the routing keys and
// groups record indices by owning shard.
func shardPartition(keys []int64, plan ShardPlan) ([]int64, [][]int, error) {
	var splits []int64
	if len(plan.Splits) > 0 {
		splits = append([]int64(nil), plan.Splits...)
		for i := 1; i < len(splits); i++ {
			if splits[i] <= splits[i-1] {
				return nil, nil, fmt.Errorf("pathcache: shard splits must be strictly ascending")
			}
		}
	} else {
		if plan.Shards < 1 {
			return nil, nil, fmt.Errorf("pathcache: shard plan needs Shards >= 1 or explicit Splits")
		}
		// SplitKeys sorts its argument in place; keys must keep record order
		// for the grouping below.
		splits = shard.SplitKeys(append([]int64(nil), keys...), plan.Shards)
	}
	if len(splits)+1 > shard.MaxShards {
		return nil, nil, fmt.Errorf("pathcache: %d shards exceeds the maximum %d", len(splits)+1, shard.MaxShards)
	}
	groups := make([][]int, len(splits)+1)
	for i, k := range keys {
		g := shard.Locate(splits, k)
		groups[g] = append(groups[g], i)
	}
	return splits, groups, nil
}

// BuildShardedPoints builds a sharded store of a point kind ("twosided",
// "threeside", "window", or "lsm" over a point base) under dir: one file
// per shard plus the shard-map manifest, each shard holding the points
// whose X falls in its key range. For "lsm" with an interval base, pass
// the diagonal-corner encodings (IntervalToDynamicPoint).
func BuildShardedPoints(dir, kind string, pts []Point, plan ShardPlan, opts *Options) (*Sharded, error) {
	switch kind {
	case "twosided", "threeside", "window", lsmKindName:
	default:
		return nil, fmt.Errorf("pathcache: kind %q is not built from points (interval kinds use BuildShardedIntervals)", kind)
	}
	if kind == "twosided" && plan.Scheme > SchemeSegmented {
		return nil, fmt.Errorf("pathcache: sharded stores need a flat persistable scheme, not %v", plan.Scheme)
	}
	keys := make([]int64, len(pts))
	for i, p := range pts {
		keys[i] = p.X
	}
	return buildSharded(dir, kind, plan, opts, keys, func(group []int, fileOpts *Options) (Index, error) {
		sub := make([]Point, len(group))
		for j, i := range group {
			sub[j] = pts[i]
		}
		switch kind {
		case "twosided":
			return NewTwoSidedIndex(sub, plan.Scheme, fileOpts)
		case "threeside":
			return NewThreeSidedIndex(sub, fileOpts)
		case "window":
			return NewWindowIndex(sub, fileOpts)
		default:
			return BuildDynamic(lsmBaseName(plan), sub, fileOpts)
		}
	})
}

// BuildShardedIntervals builds a sharded store of an interval kind
// ("segment", "interval", "stabbing") under dir, each shard holding the
// intervals whose Lo falls in its key range.
func BuildShardedIntervals(dir, kind string, ivs []Interval, plan ShardPlan, opts *Options) (*Sharded, error) {
	switch kind {
	case "segment", "interval", "stabbing":
	default:
		return nil, fmt.Errorf("pathcache: kind %q is not built from intervals (point kinds use BuildShardedPoints)", kind)
	}
	if kind == "stabbing" && plan.Scheme > SchemeSegmented {
		return nil, fmt.Errorf("pathcache: sharded stores need a flat persistable scheme, not %v", plan.Scheme)
	}
	keys := make([]int64, len(ivs))
	for i, iv := range ivs {
		keys[i] = iv.Lo
	}
	return buildSharded(dir, kind, plan, opts, keys, func(group []int, fileOpts *Options) (Index, error) {
		sub := make([]Interval, len(group))
		for j, i := range group {
			sub[j] = ivs[i]
		}
		switch kind {
		case "segment":
			return NewSegmentIndex(sub, !plan.Uncached, fileOpts)
		case "interval":
			return NewIntervalIndex(sub, !plan.Uncached, fileOpts)
		default:
			return NewStabbingIndex(sub, plan.Scheme, fileOpts)
		}
	})
}

func lsmBaseName(plan ShardPlan) string {
	if plan.Base == "" {
		return "twosided"
	}
	return plan.Base
}

// buildSharded is the shared build path: create the manifest store first
// (a crash anywhere before the final map commit reopens as ErrNoIndex),
// build every shard file, then commit the map — the single flip that makes
// the directory a store.
func buildSharded(dir, kindName string, plan ShardPlan, opts *Options, keys []int64, build func(group []int, fileOpts *Options) (Index, error)) (*Sharded, error) {
	d, ok := kindByName(kindName)
	if !ok {
		return nil, fmt.Errorf("pathcache: unknown kind %q", kindName)
	}
	var baseKind byte
	if kindName == lsmKindName {
		bd, ok := kindByName(lsmBaseName(plan))
		if !ok {
			return nil, fmt.Errorf("pathcache: unknown base kind %q", lsmBaseName(plan))
		}
		baseKind = bd.Kind
	}
	splits, groups, err := shardPartition(keys, plan)
	if err != nil {
		return nil, err
	}
	if kindName != lsmKindName {
		for i, g := range groups {
			if len(g) == 0 {
				return nil, fmt.Errorf("pathcache: splits leave static shard %d empty", i)
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	pageSize := 0
	if opts != nil {
		pageSize = opts.PageSize
	}
	mbe, err := engine.New(engine.Config{Path: filepath.Join(dir, shard.MapFileName), PageSize: pageSize})
	if err != nil {
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	files := make([]string, len(groups))
	shards := make([]shard.Shard, len(groups))
	var built []Index
	fail := func(err error) (*Sharded, error) {
		for _, ix := range built {
			ix.Close()
		}
		mbe.Close()
		return nil, err
	}
	runtimeOpts := cloneShardOptions(opts)
	for i, g := range groups {
		files[i] = shardFileName(uint64(i))
		path := filepath.Join(dir, files[i])
		ix, err := build(g, shardFileOptions(opts, path))
		if err != nil {
			return fail(err)
		}
		built = append(built, ix)
		ix.(backender).backend().Obs().SetShard(i)
		shards[i] = shard.Shard{File: files[i], Ref: newShardHandle(path, ix, runtimeOpts)}
	}
	m := &shard.Map{Epoch: 1, Seq: uint64(len(groups)), Kind: d.Kind, Base: baseKind, Splits: splits, Files: files}
	if err := shard.Save(mbe, m); err != nil {
		return fail(fmt.Errorf("pathcache: %w", err))
	}
	return &Sharded{
		dir:    dir,
		opts:   runtimeOpts,
		kind:   d.Kind,
		base:   baseKind,
		be:     mbe,
		router: shard.NewRouter(shards, splits, m.Epoch, m.Seq),
	}, nil
}

// newShardHandle wraps one shard index in a hot-swap handle whose Reload
// reopens with the store's per-shard options.
func newShardHandle(path string, ix Index, opts *Options) *Handle {
	h := NewHandle(path, ix)
	h.SetOpener(func() (Index, error) { return openIndexWith(path, opts) })
	return h
}

// OpenSharded reopens a sharded store built under dir. Every shard opens
// with its own engine — its own buffer pool, metric registry and bound
// sentinels configured from opts — and records its series tagged with its
// shard number. A manifest whose final commit never landed fails with
// ErrNoIndex; torn state surfaces as ErrCorrupt — never partial answers.
func OpenSharded(dir string, opts *Options) (*Sharded, error) {
	mbe, err := engine.Open(filepath.Join(dir, shard.MapFileName))
	if err != nil {
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	blob, err := mbe.ReadMeta(kindShard)
	if err != nil {
		mbe.Close()
		return nil, err
	}
	m, err := shard.LoadBlob(mbe, blob)
	if err != nil {
		mbe.Close()
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	runtimeOpts := cloneShardOptions(opts)
	shards := make([]shard.Shard, len(m.Files))
	var opened []Index
	fail := func(err error) (*Sharded, error) {
		for _, ix := range opened {
			ix.Close()
		}
		mbe.Close()
		return nil, err
	}
	wantKind := engine.KindName(m.Kind)
	for i, f := range m.Files {
		path := filepath.Join(dir, f)
		ix, err := openIndexWith(path, runtimeOpts)
		if err != nil {
			return fail(fmt.Errorf("pathcache: shard %s: %w", f, err))
		}
		opened = append(opened, ix)
		if ix.Kind() != wantKind {
			return fail(fmt.Errorf("pathcache: shard %s holds %q, shard map says %q: %w", f, ix.Kind(), wantKind, ErrKindMismatch))
		}
		if lx, ok := ix.(*LSMIndex); ok && lx.Base() != engine.KindName(m.Base) {
			return fail(fmt.Errorf("pathcache: shard %s has base %q, shard map says %q: %w", f, lx.Base(), engine.KindName(m.Base), ErrKindMismatch))
		}
		ix.(backender).backend().Obs().SetShard(i)
		shards[i] = shard.Shard{File: f, Ref: newShardHandle(path, ix, runtimeOpts)}
	}
	return &Sharded{
		dir:    dir,
		opts:   runtimeOpts,
		kind:   m.Kind,
		base:   m.Base,
		be:     mbe,
		router: shard.NewRouter(shards, m.Splits, m.Epoch, m.Seq),
	}, nil
}

// Kind reports the registry name "shard".
func (s *Sharded) Kind() string { return shardKindName }

// ContentKind reports the registry name of the kind every shard holds.
func (s *Sharded) ContentKind() string { return engine.KindName(s.kind) }

// Base reports the base kind name of "lsm" shards, "" for static kinds.
func (s *Sharded) Base() string {
	if s.kind != kindLSM {
		return ""
	}
	return engine.KindName(s.base)
}

// Dir reports the store's directory.
func (s *Sharded) Dir() string { return s.dir }

// NumShards reports the current shard count.
func (s *Sharded) NumShards() int {
	shards, _, _ := s.router.Snapshot()
	return len(shards)
}

// Epoch reports the shard map's epoch, bumped by every Split.
func (s *Sharded) Epoch() uint64 { return s.router.Epoch() }

// Splits returns a copy of the current split keys: shard i covers routing
// keys in [Splits[i-1], Splits[i]), unbounded at the ends.
func (s *Sharded) Splits() []int64 {
	_, splits, _ := s.router.Snapshot()
	return append([]int64(nil), splits...)
}

// acquireShard pins one shard's index for the duration of an operation.
func acquireShard(sh shard.Shard) (Index, func() error, error) {
	return sh.Ref.(*Handle).Acquire()
}

// shardRetries bounds how often an operation restarts after losing a race
// with a concurrent Split or ReloadShard swap.
const shardRetries = 16

// withSnapshot runs fn against one consistent router snapshot, retrying
// from scratch when a concurrent swap retires a pinned shard mid-operation
// (fn must reset its outputs on entry): a retried operation never mixes
// results from two epochs.
func (s *Sharded) withSnapshot(fn func(shards []shard.Shard, splits []int64) error) error {
	var err error
	for attempt := 0; attempt < shardRetries; attempt++ {
		shards, splits, _ := s.router.Snapshot()
		if err = fn(shards, splits); !errors.Is(err, ErrHandleClosed) {
			return err
		}
	}
	return err
}

// forEachShard visits every shard in order under one snapshot.
func (s *Sharded) forEachShard(fn func(i int, ix Index) error) error {
	return s.withSnapshot(func(shards []shard.Shard, _ []int64) error {
		for i := range shards {
			ix, release, err := acquireShard(shards[i])
			if err != nil {
				return err
			}
			err = fn(i, ix)
			if rerr := release(); err == nil {
				err = rerr
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// Len reports the summed record count across shards.
func (s *Sharded) Len() int {
	n := 0
	s.forEachShard(func(_ int, ix Index) error {
		n += ix.Len()
		return nil
	})
	return n
}

// Pages reports the storage footprint: every shard plus the manifest.
func (s *Sharded) Pages() int {
	n := s.be.NumPages()
	s.forEachShard(func(_ int, ix Index) error {
		n += ix.Pages()
		return nil
	})
	return n
}

// Stats sums the store-level I/O counters of every shard and the manifest.
func (s *Sharded) Stats() Stats {
	st := s.be.Stats()
	out := Stats{Reads: st.Reads, Writes: st.Writes, Pages: s.be.NumPages()}
	s.forEachShard(func(_ int, ix Index) error {
		sst := ix.Stats()
		out.Reads += sst.Reads
		out.Writes += sst.Writes
		out.Pages += sst.Pages
		out.CacheHits += sst.CacheHits
		out.Evictions += sst.Evictions
		return nil
	})
	return out
}

// ShardStats reports each shard's own store-level counters, in shard
// order — the per-shard ground truth the batch statistics sum to.
func (s *Sharded) ShardStats() []Stats {
	var out []Stats
	s.forEachShard(func(_ int, ix Index) error {
		out = append(out, ix.Stats())
		return nil
	})
	return out
}

// Metrics merges every shard's metric series; each OpMetrics carries the
// Shard that recorded it.
func (s *Sharded) Metrics() Metrics {
	var out Metrics
	s.forEachShard(func(_ int, ix Index) error {
		m := ix.Metrics()
		out.Inflight += m.Inflight
		out.Ops = append(out.Ops, m.Ops...)
		return nil
	})
	return out
}

// ResetStats zeroes the I/O counters of every shard and the manifest.
func (s *Sharded) ResetStats() {
	s.be.ResetStats()
	s.forEachShard(func(_ int, ix Index) error {
		ix.ResetStats()
		return nil
	})
}

// ResetMetrics drops every shard's recorded metric series.
func (s *Sharded) ResetMetrics() {
	s.forEachShard(func(_ int, ix Index) error {
		if r, ok := ix.(interface{ ResetMetrics() }); ok {
			r.ResetMetrics()
		}
		return nil
	})
}

// ShardInfo describes one shard of a sharded store.
type ShardInfo struct {
	Shard int
	File  string
	Kind  string
	Len   int
	Pages int
	// Lo and Hi bound the shard's routing keys: Lo <= k < Hi, with
	// MinInt64/MaxInt64 standing in on the unbounded first and last shards.
	Lo, Hi int64
	Stats  Stats
}

// Shards describes the current shards in order.
func (s *Sharded) Shards() []ShardInfo {
	var out []ShardInfo
	s.withSnapshot(func(shards []shard.Shard, splits []int64) error {
		out = out[:0]
		for i := range shards {
			info := ShardInfo{Shard: i, File: shards[i].File, Lo: math.MinInt64, Hi: math.MaxInt64}
			if i > 0 {
				info.Lo = splits[i-1]
			}
			if i < len(splits) {
				info.Hi = splits[i]
			}
			ix, release, err := acquireShard(shards[i])
			if err != nil {
				return err
			}
			info.Kind, info.Len, info.Pages, info.Stats = ix.Kind(), ix.Len(), ix.Pages(), ix.Stats()
			release()
			out = append(out, info)
		}
		return nil
	})
	return out
}

// ReloadShard reopens shard i from its file and hot-swaps it in: readers
// pinned to the superseded snapshot finish undisturbed and never block.
func (s *Sharded) ReloadShard(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrHandleClosed
	}
	shards, _, _ := s.router.Snapshot()
	if i < 0 || i >= len(shards) {
		return fmt.Errorf("pathcache: no shard %d", i)
	}
	h := shards[i].Ref.(*Handle)
	if err := h.Reload(); err != nil {
		return err
	}
	ix, release, err := h.Acquire()
	if err != nil {
		return err
	}
	ix.(backender).backend().Obs().SetShard(i)
	return release()
}

// Close retires every shard handle (each shard's file closes once its last
// in-flight reader releases) and closes the manifest. Idempotent.
func (s *Sharded) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	shards, _, _ := s.router.Snapshot()
	for i := range shards {
		if err := shards[i].Ref.(*Handle).Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.be.Close(); err != nil && first == nil {
		first = fmt.Errorf("pathcache: %w", err)
	}
	return first
}

// Split divides shard i in two at the median routing key. The shard's
// records are enumerated from a pinned copy-on-write snapshot and rebuilt
// into two fresh files with the kind's own builder; the new shard map then
// commits through the manifest's write-all-new → flip → free-old
// discipline, the router installs the new shards, and the old file is
// retired only after its last in-flight reader releases — concurrent
// readers never block and never see a half-split store. Supported for the
// enumerable kinds: "twosided", "threeside", "window", "stabbing", and
// "lsm" on non-interval bases. The segment and interval trees expose no
// enumeration and cannot split.
func (s *Sharded) Split(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrHandleClosed
	}
	shards, splits, epoch := s.router.Snapshot()
	if i < 0 || i >= len(shards) {
		return fmt.Errorf("pathcache: split: no shard %d", i)
	}
	if len(shards)+1 > shard.MaxShards {
		return fmt.Errorf("pathcache: split: already at the maximum %d shards", shard.MaxShards)
	}
	h := shards[i].Ref.(*Handle)
	ix, release, err := h.Acquire()
	if err != nil {
		return err
	}
	defer release()

	seq := s.router.Seq()
	leftFile, rightFile := shardFileName(seq), shardFileName(seq+1)
	leftPath := filepath.Join(s.dir, leftFile)
	rightPath := filepath.Join(s.dir, rightFile)
	key, leftIx, rightIx, err := s.splitShard(ix, leftPath, rightPath)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		leftIx.Close()
		rightIx.Close()
		return removeAfter(err, leftPath, rightPath)
	}

	newSplits := make([]int64, 0, len(splits)+1)
	newSplits = append(newSplits, splits[:i]...)
	newSplits = append(newSplits, key)
	newSplits = append(newSplits, splits[i:]...)
	newFiles := make([]string, 0, len(shards)+1)
	for j := range shards {
		if j == i {
			newFiles = append(newFiles, leftFile, rightFile)
			continue
		}
		newFiles = append(newFiles, shards[j].File)
	}
	m := &shard.Map{Epoch: epoch + 1, Seq: seq + 2, Kind: s.kind, Base: s.base, Splits: newSplits, Files: newFiles}
	if err := shard.Save(s.be, m); err != nil {
		return abort(fmt.Errorf("pathcache: %w", err))
	}

	newShards := make([]shard.Shard, 0, len(shards)+1)
	newShards = append(newShards, shards[:i]...)
	newShards = append(newShards,
		shard.Shard{File: leftFile, Ref: newShardHandle(leftPath, leftIx, s.opts)},
		shard.Shard{File: rightFile, Ref: newShardHandle(rightPath, rightIx, s.opts)})
	newShards = append(newShards, shards[i+1:]...)
	for j := range newShards {
		if bx, ok := newShards[j].Ref.(*Handle); ok {
			if six, rel, err := bx.Acquire(); err == nil {
				six.(backender).backend().Obs().SetShard(j)
				rel()
			}
		}
	}
	s.router.Install(newShards, newSplits, m.Epoch, m.Seq)
	h.Close()
	os.Remove(filepath.Join(s.dir, shards[i].File))
	return nil
}

// splitShard enumerates ix's records, picks the median routing key, and
// builds the two halves into fresh shard files.
func (s *Sharded) splitShard(ix Index, leftPath, rightPath string) (int64, Index, Index, error) {
	lo := shardFileOptions(s.opts, leftPath)
	ro := shardFileOptions(s.opts, rightPath)
	switch t := ix.(type) {
	case *TwoSidedIndex:
		pts, _, err := t.Query(math.MinInt64, math.MinInt64)
		if err != nil {
			return 0, nil, nil, err
		}
		return splitPoints(pts, func(sub []Point, o *Options) (Index, error) {
			return NewTwoSidedIndex(sub, t.Scheme(), o)
		}, lo, ro)
	case *ThreeSidedIndex:
		pts, _, err := t.QueryThreeSided(math.MinInt64, math.MaxInt64, math.MinInt64)
		if err != nil {
			return 0, nil, nil, err
		}
		return splitPoints(pts, func(sub []Point, o *Options) (Index, error) {
			return NewThreeSidedIndex(sub, o)
		}, lo, ro)
	case *WindowIndex:
		pts, _, err := t.WindowQuery(math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64)
		if err != nil {
			return 0, nil, nil, err
		}
		return splitPoints(pts, func(sub []Point, o *Options) (Index, error) {
			return NewWindowIndex(sub, o)
		}, lo, ro)
	case *StabbingIndex:
		// Enumerate through the underlying 2-sided engine and decode the
		// diagonal-corner reduction: routing is by interval Lo.
		pts, _, err := t.ix.Query(math.MinInt64, math.MinInt64)
		if err != nil {
			return 0, nil, nil, err
		}
		ivs := make([]Interval, len(pts))
		for j, p := range pts {
			ivs[j] = pointToInterval(p)
		}
		scheme := t.ix.Scheme()
		return splitIntervals(ivs, func(sub []Interval, o *Options) (Index, error) {
			return NewStabbingIndex(sub, scheme, o)
		}, lo, ro)
	case *LSMIndex:
		pts, _, err := t.Query(math.MinInt64, math.MinInt64)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("pathcache: split: %w", err)
		}
		base := t.Base()
		return splitPoints(pts, func(sub []Point, o *Options) (Index, error) {
			return BuildDynamic(base, sub, o)
		}, lo, ro)
	default:
		return 0, nil, nil, fmt.Errorf("pathcache: split unsupported for %s shards (no enumeration)", ix.Kind())
	}
}

// medianSplitKey picks the median of keys, adjusted upward past any run of
// duplicates so both halves end up non-empty.
func medianSplitKey(keys []int64) (int64, error) {
	if len(keys) < 2 {
		return 0, errors.New("pathcache: split: shard has fewer than 2 records")
	}
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	k := sorted[len(sorted)/2]
	if k == sorted[0] {
		for _, v := range sorted {
			if v > sorted[0] {
				k = v
				break
			}
		}
		if k == sorted[0] {
			return 0, errors.New("pathcache: split: all routing keys equal")
		}
	}
	return k, nil
}

func splitPoints(pts []Point, build func([]Point, *Options) (Index, error), lo, ro *Options) (int64, Index, Index, error) {
	keys := make([]int64, len(pts))
	for i, p := range pts {
		keys[i] = p.X
	}
	key, err := medianSplitKey(keys)
	if err != nil {
		return 0, nil, nil, err
	}
	var left, right []Point
	for _, p := range pts {
		if p.X < key {
			left = append(left, p)
		} else {
			right = append(right, p)
		}
	}
	leftIx, rightIx, err := buildHalves(left, right, build, lo, ro)
	return key, leftIx, rightIx, err
}

func splitIntervals(ivs []Interval, build func([]Interval, *Options) (Index, error), lo, ro *Options) (int64, Index, Index, error) {
	keys := make([]int64, len(ivs))
	for i, iv := range ivs {
		keys[i] = iv.Lo
	}
	key, err := medianSplitKey(keys)
	if err != nil {
		return 0, nil, nil, err
	}
	var left, right []Interval
	for _, iv := range ivs {
		if iv.Lo < key {
			left = append(left, iv)
		} else {
			right = append(right, iv)
		}
	}
	leftIx, rightIx, err := buildHalves(left, right, build, lo, ro)
	return key, leftIx, rightIx, err
}

func buildHalves[R any](left, right []R, build func([]R, *Options) (Index, error), lo, ro *Options) (Index, Index, error) {
	leftIx, err := build(left, lo)
	if err != nil {
		return nil, nil, err
	}
	rightIx, err := build(right, ro)
	if err != nil {
		leftIx.Close()
		return nil, nil, removeAfter(err, lo.Path)
	}
	return leftIx, rightIx, nil
}

// removeAfter removes the files a failed operation created and returns err
// joined with every removal that failed; a file already gone is not a
// failure.
func removeAfter(err error, paths ...string) error {
	for _, p := range paths {
		if rerr := os.Remove(p); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			err = errors.Join(err, rerr)
		}
	}
	return err
}
