package pathcache

import (
	"fmt"
	"sync"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
	"pathcache/internal/lsm"
	"pathcache/internal/obs"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// kindLSM is the write tier's registry kind byte.
const kindLSM = 7

const lsmKindName = "lsm"

func init() {
	engine.Register(engine.Descriptor{Kind: kindLSM, Name: lsmKindName, Open: openLSM, Bound: obs.LSMBound})
}

// Compile-time check that the write tier's base kind bytes match the
// engine registry's kind bytes for the six static structures: any mismatch
// makes the array index non-zero and the build fails.
var _ = [1]struct{}{}[lsm.BaseTwoSided-kindTwoSided+lsm.BaseThreeSide-kindThreeSide+
	lsm.BaseSegment-kindSegment+lsm.BaseInterval-kindInterval+
	lsm.BaseStabbing-kindStabbing+lsm.BaseWindow-kindWindow]

// LSMLevel summarizes one sealed level of a dynamic index: its geometric
// slot (capacity MemtableEntries·2^Slot records), record count, and the
// page footprint of its static tree, sorted data chain and bloom filter.
type LSMLevel struct {
	Slot       int
	Records    int
	TreePages  int
	DataPages  int
	BloomPages int
}

// LSMIndex is the persistent dynamization of the static kinds: a crash-safe
// log-structured write tier. Updates append to a WAL (durable before the
// call returns on file-backed indexes) and land in a memtable; every
// MemtableEntries updates the memtable is sealed into a static level built
// with the base kind's builder, cascading a Bentley–Saxe merge; deletes
// tombstone; tombstones reaching B·(⌈log_B n⌉+1) (obs.PathLen) trigger a
// compaction rebuilding one tombstone-free level. Tombstones are held in
// memory, with a chain on disk as their durable copy read only at open,
// so the cap bounds memory, not query reads. A double-buffered
// manifest makes every flush and compaction atomic: a crash at any I/O
// point recovers the previous committed state plus a WAL replay of every
// acknowledged update.
//
// Queries pay the dynamization tax — every level answers, and nothing
// else is read — giving O(log(n/B)·bound_static + t/B) page reads, the
// declared bound the strict sentinels enforce at the version each query
// ran on. Queries may run concurrently with each other and with updates,
// and never wait for an update's fsync, a flush's or compaction's level
// build, or a manifest commit: they read the last published version until
// the writer swaps in the next. Updates, flushes and compactions are
// serialized internally.
//
// The base kind decides the query shape, which Shape reports: point bases
// ("twosided", "threeside", "window") answer Query, interval bases
// ("segment", "interval", "stabbing") answer Stab. A direct call of the
// other method fails with lsm's unsupported error, except that a
// "stabbing" base answers Query too through the diagonal-corner reduction.
type LSMIndex struct {
	core
	mu sync.Mutex // serializes updates, flushes and compactions
	tr *lsm.Tree
}

// lsmBaseFor resolves a base kind's registry name ("twosided", "segment",
// ...) to its sealed-level builder.
func lsmBaseFor(name string) (lsm.Base, error) {
	for _, d := range engine.Kinds() {
		if d.Name == name {
			base, err := lsm.BaseFor(d.Kind)
			if err != nil {
				return nil, fmt.Errorf("pathcache: %q is not a dynamizable base kind", name)
			}
			return base, nil
		}
	}
	return nil, fmt.Errorf("pathcache: unknown base kind %q", name)
}

// lsmConfig wires a tree to a backend: all I/O through the backend's pager,
// WAL durability through its sync barrier, manifest commits through the
// metadata-page flip.
func lsmConfig(be *engine.Backend, base lsm.Base, flushEvery int) lsm.Config {
	return lsm.Config{
		Pager:      be.Pager(),
		Base:       base,
		FlushEvery: flushEvery,
		Sync:       be.Sync,
		Commit: func(p disk.Pager, blob []byte) error {
			return be.ReplaceMeta(p, kindLSM, blob)
		},
	}
}

// BuildDynamic creates a dynamic index over the given base kind and seeds
// it with pts — for interval bases, the diagonal-corner encodings
// (X = -Lo, Y = Hi; see IntervalToDynamicPoint). The seed is built like a
// static index: sorted once and sealed into the first level, with one
// manifest commit and no WAL traffic, so a crash before that commit
// reopens as ErrNoIndex, never as part of the seed. Records must be unique
// by their full (X, Y, ID) triple, the identity Delete matches on; a seed
// holding a record twice is refused with an error naming it. An empty pts
// is fine: the index starts empty.
func BuildDynamic(base string, pts []Point, opts *Options) (*LSMIndex, error) {
	b, err := lsmBaseFor(base)
	if err != nil {
		return nil, err
	}
	c, err := newCore(opts)
	if err != nil {
		return nil, err
	}
	flushEvery := 0
	if opts != nil {
		flushEvery = opts.MemtableEntries
	}
	var tr *lsm.Tree
	err = c.recordBuild(lsmKindName, func() (int, error) {
		var err error
		tr, err = lsm.New(lsmConfig(c.be, b, flushEvery), toRecPoints(pts))
		return len(pts), err
	})
	if err != nil {
		c.be.Close()
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	return &LSMIndex{core: c, tr: tr}, nil
}

// OpenDynamic reopens a file-backed dynamic index, replaying any WAL
// entries an interrupted session left behind. The base kind comes from the
// manifest; a file holding a different index kind fails with
// ErrKindMismatch.
func OpenDynamic(path string) (*LSMIndex, error) {
	return openTyped[*LSMIndex](path, kindLSM)
}

// openLSM is the registered opener: decode the base kind from the metadata
// blob, then recover the tree (manifest, levels, blooms, tombstones, WAL).
func openLSM(be *engine.Backend, blob []byte) (any, error) {
	baseKind, err := lsm.BaseKindOf(blob)
	if err != nil {
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	base, err := lsm.BaseFor(baseKind)
	if err != nil {
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	tr, err := lsm.Open(lsmConfig(be, base, 0), blob)
	if err != nil {
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	return &LSMIndex{core: core{be: be}, tr: tr}, nil
}

// IntervalToDynamicPoint encodes an interval as the point a dynamic index
// over an interval base stores: the diagonal-corner reduction X = -Lo,
// Y = Hi. DynamicPointToInterval inverts it.
func IntervalToDynamicPoint(iv Interval) Point { return intervalToPoint(iv) }

// DynamicPointToInterval decodes a stored point back to its interval.
func DynamicPointToInterval(p Point) Interval { return pointToInterval(p) }

// versionStats is the accounting of one read that returned results
// records from version v through p: the dynamization bound at the level
// count and size the read actually ran on, rather than the registry's
// worst-case estimate or a shape read before the read took the tree's
// lock.
func versionStats(p disk.Pager, v lsm.Version, results int) skeletal.QueryStats {
	return skeletal.QueryStats{Bound: obs.LSMBoundAt(v.Levels, v.N, B(p.PageSize()), results)}
}

// Insert adds a record: one durable WAL append, then any flush or
// compaction the thresholds call for (recorded as separate "flush" and
// "compact" metric ops tagged with the level they seal). The profile covers
// the append alone — updates declare no read bound.
func (x *LSMIndex) Insert(p Point) (IOProfile, error) {
	return x.update("insert", func(pg disk.Pager) error {
		return x.tr.Insert(pg, toRec(p))
	})
}

// Delete removes a record previously inserted with the same (X, Y, ID):
// one durable WAL append that tombstones the sealed copy. Deleting a record
// that is not live corrupts the live count — callers guard with Has.
func (x *LSMIndex) Delete(p Point) (IOProfile, error) {
	return x.update("delete", func(pg disk.Pager) error {
		return x.tr.Delete(pg, toRec(p))
	})
}

func (x *LSMIndex) update(opName string, apply func(disk.Pager) error) (IOProfile, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	r := x.newRecorder(opSpec{kind: lsmKindName, name: opName}, obs.SerialWorker)
	r.begin()
	err := apply(r.pager)
	prof, _ := r.end(0, skeletal.QueryStats{}, err) // no bound, so no breach
	if err != nil {
		return IOProfile{}, fmt.Errorf("pathcache: %w", err)
	}
	return prof, x.maintainLocked()
}

// maintainLocked runs the threshold-triggered maintenance synchronously:
// seal a full memtable, then rebuild if tombstones crossed their cap.
func (x *LSMIndex) maintainLocked() error {
	if x.tr.NeedsFlush() {
		if err := x.flushLocked(); err != nil {
			return err
		}
	}
	if x.tr.NeedsCompact() {
		if err := x.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// runMaint records one maintenance pass (flush or compaction) as a metric
// op tagged with the level it seals into, so per-level write amplification
// is visible in Metrics.
func (x *LSMIndex) runMaint(opName string, slot int, run func(disk.Pager) (int, error)) error {
	r := x.newRecorder(opSpec{kind: lsmKindName, name: opName}, slot)
	r.begin()
	sealed, err := run(r.pager)
	r.end(sealed, skeletal.QueryStats{}, err)
	if err != nil {
		return fmt.Errorf("pathcache: %w", err)
	}
	return nil
}

func (x *LSMIndex) flushLocked() error {
	return x.runMaint("flush", x.tr.NextFlushSlot(), func(pg disk.Pager) (int, error) {
		slot, err := x.tr.Flush(pg)
		if err != nil {
			return 0, err
		}
		return x.tr.LevelRecordsAt(slot), nil
	})
}

func (x *LSMIndex) compactLocked() error {
	return x.runMaint("compact", x.tr.CompactDest(), func(pg disk.Pager) (int, error) {
		slot, err := x.tr.Compact(pg)
		if err != nil {
			return 0, err
		}
		return x.tr.LevelRecordsAt(slot), nil
	})
}

// Flush seals the memtable now regardless of the threshold — a no-op when
// it is empty. Callers that want a pure reopen-from-manifest (no WAL
// replay) flush before Close.
func (x *LSMIndex) Flush() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.tr.WALEntries() == 0 {
		return nil
	}
	return x.flushLocked()
}

// Compact rebuilds every sealed level into one tombstone-free level now,
// regardless of the tombstone cap. The memtable is flushed first so the
// rebuild covers everything. Queries keep answering from the published
// version throughout; updates wait for the compaction to commit, so a
// caller that must not block runs it on a goroutine.
func (x *LSMIndex) Compact() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.tr.WALEntries() > 0 {
		if err := x.flushLocked(); err != nil {
			return err
		}
	}
	return x.compactLocked()
}

// Query reports every live record with X >= a and Y >= b: every sealed
// level answers, the memtable and tombstones adjust, and the whole
// operation is checked against the dynamization bound. Unsupported on pure
// interval bases ("segment", "interval").
func (x *LSMIndex) Query(a, b int64) ([]Point, IOProfile, error) {
	return lsmRead(x.core, x.readOp("query"), nil, TwoSidedQuery{a, b}, x.queryOn)
}

func (x *LSMIndex) appendQuery(dst []Point, a, b int64) ([]Point, IOProfile, error) {
	return lsmRead(x.core, x.readOp("query"), dst, TwoSidedQuery{a, b}, x.queryOn)
}

// lsmRead is serial for the write tier's reads, which return their answer
// alongside a bound breach: it answers q through a fresh recorder,
// appending the answer to dst.
func lsmRead[Q, R any](c core, spec opSpec, dst []R, q Q, run queryFunc[Q, R]) ([]R, IOProfile, error) {
	r := c.newRecorder(spec, obs.SerialWorker)
	r.begin()
	out, st, err := run(r.pager, dst, q)
	prof, berr := r.end(len(out)-len(dst), st, err)
	if err != nil {
		return dst, IOProfile{}, fmt.Errorf("pathcache: %w", err)
	}
	return out, prof, berr
}

// readOp is the spec of one read operation. It declares no bound of its
// own: every read reports the dynamization bound of the version it ran on
// (versionStats). The serial reads return their answer alongside a bound
// breach, so they run through the recorder directly rather than through
// serial.
func (x *LSMIndex) readOp(name string) opSpec {
	return opSpec{kind: lsmKindName, name: name}
}

// recBufPool holds the record buffers every level of one read appends
// into before the answer is converted into the caller's slice.
var recBufPool = sync.Pool{New: func() any { return new([]record.Point) }}

// maxPooledRecs caps the buffer a read hands back to recBufPool, so one
// huge answer does not stay pinned in the pool.
const maxPooledRecs = 4096

// putRecBuf returns a read's buffer, grown to hold pts, to the pool.
func putRecBuf(bp *[]record.Point, pts []record.Point) {
	if cap(pts) <= maxPooledRecs {
		*bp = pts[:0]
	}
	recBufPool.Put(bp)
}

// queryOn answers one 2-sided query through p.
func (x *LSMIndex) queryOn(p disk.Pager, dst []Point, q TwoSidedQuery) ([]Point, skeletal.QueryStats, error) {
	bp := recBufPool.Get().(*[]record.Point)
	pts, v, err := x.tr.AppendQuery(p, (*bp)[:0], q.A, q.B)
	defer putRecBuf(bp, pts)
	if err != nil {
		return dst, skeletal.QueryStats{}, err
	}
	return appendRecPoints(dst, pts), versionStats(p, v, len(pts)), nil
}

// stabOn answers one stabbing query through p; the levels store the
// diagonal corners.
func (x *LSMIndex) stabOn(p disk.Pager, dst []Interval, q int64) ([]Interval, skeletal.QueryStats, error) {
	bp := recBufPool.Get().(*[]record.Point)
	pts, v, err := x.tr.AppendStab(p, (*bp)[:0], q)
	defer putRecBuf(bp, pts)
	if err != nil {
		return dst, skeletal.QueryStats{}, err
	}
	return appendCorners(dst, pts), versionStats(p, v, len(pts)), nil
}

// Stab reports every live interval containing q, for bases that answer
// stabbing queries ("segment", "interval", "stabbing").
func (x *LSMIndex) Stab(q int64) ([]Interval, IOProfile, error) {
	return lsmRead(x.core, x.readOp("stab"), nil, q, x.stabOn)
}

func (x *LSMIndex) appendStab(dst []Interval, q int64) ([]Interval, IOProfile, error) {
	return lsmRead(x.core, x.readOp("stab"), dst, q, x.stabOn)
}

// Has reports whether the exact record (X, Y, ID) is live — the negative
// stab the per-level bloom filters serve: an absent record usually costs
// zero page reads per level; a present one costs a binary search of one
// level's data chain.
func (x *LSMIndex) Has(p Point) (bool, IOProfile, error) {
	r := x.newRecorder(x.readOp("probe"), obs.SerialWorker)
	r.begin()
	ok, v, err := x.tr.Has(r.pager, toRec(p))
	results := 0
	if ok {
		results = 1
	}
	prof, berr := r.end(results, versionStats(r.pager, v, results), err)
	if err != nil {
		return false, IOProfile{}, fmt.Errorf("pathcache: %w", err)
	}
	return ok, prof, berr
}

// QueryBatch answers every 2-sided query with up to workers concurrent
// goroutines; out[i] matches qs[i]. Updates may run concurrently — each
// query sees some committed state.
func (x *LSMIndex) QueryBatch(qs []TwoSidedQuery, workers int) ([][]Point, BatchStats, error) {
	return batch(x.core, x.readOp("query"), qs, workers, x.queryOn)
}

// StabBatch answers every stabbing query concurrently; out[i] holds the
// intervals containing qs[i].
func (x *LSMIndex) StabBatch(qs []int64, workers int) ([][]Interval, BatchStats, error) {
	return batch(x.core, x.readOp("stab"), qs, workers, x.stabOn)
}

// Kind reports the registry name "lsm".
func (x *LSMIndex) Kind() string { return lsmKindName }

// Shape reports ShapeStab over an interval base, ShapeTwoSided over a
// point base.
func (x *LSMIndex) Shape() Shape { return shapeOf(kindLSM, x.tr.BaseKind()) }

func (x *LSMIndex) writable() bool { return true }

// Base reports the base kind's registry name — the static structure the
// levels are built with.
func (x *LSMIndex) Base() string { return x.tr.BaseName() }

// Len reports the number of live records (inserts minus deletes),
// including not-yet-flushed memtable updates.
func (x *LSMIndex) Len() int { return x.tr.Len() }

// Pages reports the storage footprint in pages: levels, WAL, manifest,
// tombstones and metadata.
func (x *LSMIndex) Pages() int { return x.be.NumPages() }

// Levels summarizes every sealed level, smallest slot first.
func (x *LSMIndex) Levels() []LSMLevel {
	infos := x.tr.LevelInfos()
	out := make([]LSMLevel, len(infos))
	for i, in := range infos {
		out[i] = LSMLevel(in)
	}
	return out
}

// MemtableLen reports the number of WAL entries since the last flush — the
// updates a reopen would replay.
func (x *LSMIndex) MemtableLen() int { return x.tr.WALEntries() }

// TombCount reports pending tombstones (deletes whose sealed copies await
// the next compaction).
func (x *LSMIndex) TombCount() int { return x.tr.TombCount() }
