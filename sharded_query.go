package pathcache

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"pathcache/internal/shard"
)

// This file is the scatter-gather read/write path of a Sharded store.
// Every operation runs against one consistent router snapshot: the planner
// prunes the shard range by the predicate's routing-key interval, each
// selected shard answers through its own engine (its own pool, counters,
// metric series and bound sentinels — a sub-query must still respect its
// kind's theorem bound at the shard's size), and the gather step merges in
// canonical order, so a sharded store returns byte-identical results to a
// single store holding the same records.

// ShardProfile is one shard's I/O contribution to a scatter-gathered
// serial operation.
type ShardProfile struct {
	Shard int
	IOProfile
}

// ShardBatchStats is one shard's batch execution summary: the sub-batch it
// answered plus its exact BatchStats, whose Reads/Writes sum to that
// shard's store-level Stats diff over the batch.
type ShardBatchStats struct {
	Shard   int
	Queries int
	Stats   BatchStats
}

// canonicalPoints sorts pts into (X, Y, ID) order — the merge order every
// sharded answer returns — using scratch, which must be as long as pts.
//
// It is an LSD radix sort on X, ping-ponging between pts and scratch, then
// a comparison sort on (Y, ID) inside each run of equal X. Flipping the
// sign bit makes the unsigned byte order the signed order. One histogram
// pass counts all eight byte positions at once; a position where every key
// has the same byte would be an identity pass and is skipped, so 30-bit
// keys cost four scatter passes, not eight. Every pass is a stable linear
// sweep over contiguous memory, so the result does not depend on the order
// the shards' answers were concatenated in.
func canonicalPoints(pts, scratch []Point) {
	n := len(pts)
	if n < 2 {
		return
	}
	const sign = 1 << 63
	var counts [8][256]uint32
	for _, p := range pts {
		k := uint64(p.X) ^ sign
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	k0 := uint64(pts[0].X) ^ sign
	src, dst := pts, scratch[:n]
	for b := range counts {
		c, shift := &counts[b], 8*uint(b)
		if int(c[byte(k0>>shift)]) == n {
			continue
		}
		var off uint32
		for v := range c {
			c[v], off = off, off+c[v]
		}
		for _, p := range src {
			v := byte((uint64(p.X) ^ sign) >> shift)
			dst[c[v]] = p
			c[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pts[0] {
		copy(pts, src)
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && pts[j].X == pts[i].X {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(pts[i:j], func(a, b Point) int {
				if c := cmp.Compare(a.Y, b.Y); c != 0 {
					return c
				}
				return cmp.Compare(a.ID, b.ID)
			})
		}
		i = j
	}
}

// gatherBuf is a sharded read's pooled gather buffer: every consulted
// shard appends its answer to pts, canonicalPoints sorts them in place
// with scratch, and the caller gets one exact copy. Intervals gather
// point-shaped (asIntervals), so one buffer and one sort serve every shape.
type gatherBuf struct{ pts, scratch []Point }

var gatherPool = sync.Pool{New: func() any { return new(gatherBuf) }}

// maxPooledGather caps, in records, the buffers a released gather keeps: a
// rare huge answer's buffers go to the collector instead of staying
// pinned in the pool.
const maxPooledGather = 1 << 14

func getGather() *gatherBuf { return gatherPool.Get().(*gatherBuf) }

func (g *gatherBuf) release() {
	if cap(g.pts) > maxPooledGather {
		g.pts, g.scratch = nil, nil
	}
	g.pts = g.pts[:0]
	gatherPool.Put(g)
}

// sorted sorts the gathered records canonically and returns them; they
// stay the buffer's.
func (g *gatherBuf) sorted() []Point {
	if cap(g.scratch) < len(g.pts) {
		g.scratch = make([]Point, cap(g.pts))
	}
	canonicalPoints(g.pts, g.scratch[:len(g.pts)])
	return g.pts
}

// Interval and Point are both three 8-byte words, (Lo, Hi, ID) and
// (X, Y, ID), so the (Lo, Hi, ID) order of intervals is the (X, Y, ID)
// order of the same words read as points. asIntervals and asPoints view
// one backing array as the other type, length and capacity kept: a stab
// appends its intervals straight into the point-shaped gather buffer.
func asIntervals(pts []Point) []Interval {
	return unsafe.Slice((*Interval)(unsafe.Pointer(unsafe.SliceData(pts))), cap(pts))[:len(pts)]
}

func asPoints(ivs []Interval) []Point {
	return unsafe.Slice((*Point)(unsafe.Pointer(unsafe.SliceData(ivs))), cap(ivs))[:len(ivs)]
}

// owned copies a sorted gather out into a slice the caller owns. No
// answers are nil, like a single store's empty result.
func owned[R any](rs []R) []R {
	if len(rs) == 0 {
		return nil
	}
	return slices.Clone(rs)
}

// mergePoints gathers the shards' answers into a pooled buffer, sorts it
// canonically and returns one exact copy.
func mergePoints(parts [][]Point) []Point {
	g := getGather()
	defer g.release()
	for _, p := range parts {
		g.pts = append(g.pts, p...)
	}
	return owned(g.sorted())
}

// mergeIntervals is mergePoints for intervals.
func mergeIntervals(parts [][]Interval) []Interval {
	g := getGather()
	defer g.release()
	ivs := asIntervals(g.pts)
	for _, p := range parts {
		ivs = append(ivs, p...)
	}
	g.pts = asPoints(ivs)
	return owned(asIntervals(g.sorted()))
}

// Shape reports the content kind's shape (an lsm content's base decides).
func (s *Sharded) Shape() Shape { return shapeOf(s.kind, s.base) }

func (s *Sharded) writable() bool { return s.kind == kindLSM }

func (s *Sharded) kindError(op string) error {
	return fmt.Errorf("pathcache: %s unsupported for %s shards answering %s queries", op, s.ContentKind(), s.Shape())
}

// stabRange plans the shard range of a stabbing query at q: interval kinds
// route by Lo (so only shards with a split key <= q can hold a container),
// while "lsm" stores the diagonal-corner encoding X = -Lo.
func stabRange(kind byte, splits []int64, q int64, n int) (int, int) {
	if kind == kindLSM {
		if q == math.MinInt64 {
			return 0, n // -q is unrepresentable; consult everyone
		}
		return shard.Suffix(splits, -q), n
	}
	return 0, shard.Prefix(splits, q)
}

// gatherSerial runs one serial operation over the shard range plan picks
// from a snapshot: run appends each consulted shard's answer to one pooled
// gather buffer, which is sorted once and copied out by own. It collects
// each consulted shard's profile. A bound breach returns the profiles
// gathered so far, the breaching shard's included, the way a single
// store's serial op returns its profile beside the *BoundError.
func gatherSerial[R any](s *Sharded, plan func(splits []int64, n int) (int, int),
	run func(ix Index, dst []Point) ([]Point, IOProfile, error), own func(sorted []Point) []R,
) ([]R, []ShardProfile, error) {
	g := getGather()
	defer g.release()
	var profs []ShardProfile
	err := s.withSnapshot(func(shards []shard.Shard, splits []int64) error {
		from, to := plan(splits, len(shards))
		g.pts, profs = g.pts[:0], slices.Grow(profs[:0], to-from)
		for i := from; i < to; i++ {
			ix, release, err := acquireShard(shards[i])
			if err != nil {
				return err
			}
			var prof IOProfile
			g.pts, prof, err = run(ix, g.pts)
			if rerr := release(); err == nil {
				err = rerr
			}
			if err == nil || errors.Is(err, ErrBoundExceeded) {
				profs = append(profs, ShardProfile{Shard: i, IOProfile: prof})
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	switch {
	case errors.Is(err, ErrBoundExceeded):
		return nil, profs, err
	case err != nil:
		return nil, nil, err
	}
	return own(g.sorted()), profs, nil
}

// sumProfiles folds the consulted shards' profiles into the operation's:
// the counts add up, while Bound and BoundRatio stay zero because each
// shard was checked against its own bound.
func sumProfiles(profs []ShardProfile) IOProfile {
	var out IOProfile
	for _, p := range profs {
		out.PathPages += p.PathPages
		out.ListPages += p.ListPages
		out.UsefulIOs += p.UsefulIOs
		out.WastefulIOs += p.WastefulIOs
		out.Results += p.Results
		out.Reads += p.Reads
		out.Writes += p.Writes
		out.CacheHits += p.CacheHits
	}
	return out
}

// Query answers the 2-sided query {x >= a, y >= b} across every shard
// whose key range can hold a match, merging in (X, Y, ID) order. The
// profile sums the consulted shards'.
func (s *Sharded) Query(a, b int64) ([]Point, IOProfile, error) {
	pts, profs, err := s.QueryProfile(a, b)
	return pts, sumProfiles(profs), err
}

// QueryProfile is Query with each consulted shard's exact I/O profile.
func (s *Sharded) QueryProfile(a, b int64) ([]Point, []ShardProfile, error) {
	if s.Shape() != ShapeTwoSided {
		return nil, nil, s.kindError("Query")
	}
	return gatherSerial(s,
		func(splits []int64, n int) (int, int) { return shard.Suffix(splits, a), n },
		func(ix Index, dst []Point) ([]Point, IOProfile, error) {
			return ix.(twoSidedAppender).appendQuery(dst, a, b)
		},
		owned[Point])
}

// QueryThreeSided answers the 3-sided query {a1 <= x <= a2, y >= b} across
// the shards overlapping [a1, a2].
func (s *Sharded) QueryThreeSided(a1, a2, b int64) ([]Point, IOProfile, error) {
	if s.Shape() != ShapeThreeSided {
		return nil, IOProfile{}, s.kindError("QueryThreeSided")
	}
	pts, profs, err := gatherSerial(s,
		func(splits []int64, _ int) (int, int) { return shard.Overlap(splits, a1, a2) },
		func(ix Index, dst []Point) ([]Point, IOProfile, error) {
			return ix.(threeSidedAppender).appendQueryThreeSided(dst, a1, a2, b)
		},
		owned[Point])
	return pts, sumProfiles(profs), err
}

// WindowQuery answers the 4-sided query [x1, x2] × [y1, y2] across the
// shards overlapping [x1, x2].
func (s *Sharded) WindowQuery(x1, x2, y1, y2 int64) ([]Point, IOProfile, error) {
	if s.Shape() != ShapeWindow {
		return nil, IOProfile{}, s.kindError("WindowQuery")
	}
	pts, profs, err := gatherSerial(s,
		func(splits []int64, _ int) (int, int) { return shard.Overlap(splits, x1, x2) },
		func(ix Index, dst []Point) ([]Point, IOProfile, error) {
			return ix.(windowAppender).appendWindowQuery(dst, x1, x2, y1, y2)
		},
		owned[Point])
	return pts, sumProfiles(profs), err
}

// Stab reports every interval containing q, merged in (Lo, Hi, ID) order.
func (s *Sharded) Stab(q int64) ([]Interval, IOProfile, error) {
	if s.Shape() != ShapeStab {
		return nil, IOProfile{}, s.kindError("Stab")
	}
	ivs, profs, err := gatherSerial(s,
		func(splits []int64, n int) (int, int) { return stabRange(s.kind, splits, q, n) },
		func(ix Index, dst []Point) ([]Point, IOProfile, error) {
			ivs, prof, err := ix.(stabAppender).appendStab(asIntervals(dst), q)
			return asPoints(ivs), prof, err
		},
		func(pts []Point) []Interval { return owned(asIntervals(pts)) })
	return ivs, sumProfiles(profs), err
}

// Has reports whether the exact record (X, Y, ID) is live, consulting only
// the owning shard. Supported by "lsm" shards.
func (s *Sharded) Has(p Point) (bool, IOProfile, error) {
	if !s.writable() {
		return false, IOProfile{}, s.kindError("Has")
	}
	var ok bool
	var prof IOProfile
	err := s.withSnapshot(func(shards []shard.Shard, splits []int64) error {
		i := shard.Locate(splits, p.X)
		ix, release, err := acquireShard(shards[i])
		if err != nil {
			return err
		}
		ok, prof, err = ix.(WriteTier).Has(p)
		if rerr := release(); err == nil {
			err = rerr
		}
		return err
	})
	return ok, prof, err
}

// Insert routes a record to its owning shard's write tier. Supported by
// "lsm" shards; updates across all shards are serialized, like a single
// store's.
func (s *Sharded) Insert(p Point) (IOProfile, error) {
	return s.update("Insert", p, WriteTier.Insert)
}

// Delete tombstones a record previously inserted with the same (X, Y, ID)
// in its owning shard. Supported by "lsm" shards.
func (s *Sharded) Delete(p Point) (IOProfile, error) {
	return s.update("Delete", p, WriteTier.Delete)
}

func (s *Sharded) update(op string, p Point, apply func(WriteTier, Point) (IOProfile, error)) (IOProfile, error) {
	if !s.writable() {
		return IOProfile{}, s.kindError(op)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return IOProfile{}, ErrHandleClosed
	}
	shards, splits, _ := s.router.Snapshot()
	ix, release, err := acquireShard(shards[shard.Locate(splits, p.X)])
	if err != nil {
		return IOProfile{}, err
	}
	prof, err := apply(ix.(WriteTier), p)
	if rerr := release(); err == nil {
		err = rerr
	}
	return prof, err
}

// Flush seals every shard's memtable. Supported by "lsm" shards.
func (s *Sharded) Flush() error { return s.maintain("Flush", WriteTier.Flush) }

// Compact rebuilds every shard's levels tombstone-free. Supported by
// "lsm" shards.
func (s *Sharded) Compact() error { return s.maintain("Compact", WriteTier.Compact) }

func (s *Sharded) maintain(op string, run func(WriteTier) error) error {
	if !s.writable() {
		return s.kindError(op)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrHandleClosed
	}
	return s.forEachShard(func(_ int, ix Index) error {
		return run(ix.(WriteTier))
	})
}

// scatterGather fans a batch out: sub-batches are planned per shard by the
// routing predicate, run concurrently — each against its shard's own
// engine and worker pool — and merged back into input order. Each query's
// answers from its shards are merged by merge (mergePoints or
// mergeIntervals).
func scatterGather[Q, R any](s *Sharded, qs []Q, workers int,
	plan func(splits []int64, nshards int, q Q) (int, int),
	run func(ix Index, sub []Q, workers int) ([][]R, BatchStats, error),
	merge func(parts [][]R) []R,
) ([][]R, []ShardBatchStats, error) {
	var out [][]R
	var per []ShardBatchStats
	err := s.withSnapshot(func(shards []shard.Shard, splits []int64) error {
		out = make([][]R, len(qs))
		per = make([]ShardBatchStats, len(shards))
		subs := make([][]Q, len(shards))
		idxs := make([][]int, len(shards))
		for qi, q := range qs {
			from, to := plan(splits, len(shards), q)
			for si := from; si < to; si++ {
				subs[si] = append(subs[si], q)
				idxs[si] = append(idxs[si], qi)
			}
		}
		results := make([][][]R, len(shards))
		errs := make([]error, len(shards))
		var wg sync.WaitGroup
		for si := range shards {
			per[si].Shard = si
			per[si].Queries = len(subs[si])
			if len(subs[si]) == 0 {
				continue
			}
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				ix, release, err := acquireShard(shards[si])
				if err != nil {
					errs[si] = err
					return
				}
				res, st, err := run(ix, subs[si], workers)
				if rerr := release(); err == nil {
					err = rerr
				}
				results[si], per[si].Stats, errs[si] = res, st, err
			}(si)
		}
		wg.Wait()
		for si := range errs {
			if errs[si] != nil {
				return errs[si]
			}
		}
		parts := make([][][]R, len(qs))
		for si := range shards {
			for j, qi := range idxs[si] {
				parts[qi] = append(parts[qi], results[si][j])
			}
		}
		for qi := range out {
			out[qi] = merge(parts[qi])
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, per, nil
}

// foldShardStats aggregates per-shard batch statistics: Queries is the
// input batch size (per-shard Queries count sub-queries, so a query
// touching k shards contributes k there), I/O counters sum across shards,
// and PerWorker folds by worker position.
func foldShardStats(queries int, per []ShardBatchStats) BatchStats {
	agg := BatchStats{Queries: queries}
	for _, sp := range per {
		st := sp.Stats
		if st.Workers > agg.Workers {
			agg.Workers = st.Workers
		}
		agg.Results += st.Results
		agg.Reads += st.Reads
		agg.Writes += st.Writes
		agg.CacheHits += st.CacheHits
		for w, ws := range st.PerWorker {
			for w >= len(agg.PerWorker) {
				agg.PerWorker = append(agg.PerWorker, WorkerBatchStats{})
			}
			agg.PerWorker[w].Queries += ws.Queries
			agg.PerWorker[w].Results += ws.Results
			agg.PerWorker[w].Reads += ws.Reads
			agg.PerWorker[w].Writes += ws.Writes
			agg.PerWorker[w].CacheHits += ws.CacheHits
		}
	}
	return agg
}

// QueryBatch answers every 2-sided query across the shards, with up to
// workers goroutines per shard; out[i] matches qs[i] in (X, Y, ID) order.
func (s *Sharded) QueryBatch(qs []TwoSidedQuery, workers int) ([][]Point, BatchStats, error) {
	out, per, err := s.QueryBatchShards(qs, workers)
	return out, foldShardStats(len(qs), per), err
}

// QueryBatchShards is QueryBatch with per-shard execution statistics.
func (s *Sharded) QueryBatchShards(qs []TwoSidedQuery, workers int) ([][]Point, []ShardBatchStats, error) {
	if s.Shape() != ShapeTwoSided {
		return nil, nil, s.kindError("QueryBatch")
	}
	return scatterGather(s, qs, workers,
		func(splits []int64, n int, q TwoSidedQuery) (int, int) {
			return shard.Suffix(splits, q.A), n
		},
		func(ix Index, sub []TwoSidedQuery, workers int) ([][]Point, BatchStats, error) {
			return ix.(TwoSidedQuerier).QueryBatch(sub, workers)
		},
		mergePoints)
}

// QueryThreeSidedBatch answers every 3-sided query across the shards;
// out[i] matches qs[i] in (X, Y, ID) order.
func (s *Sharded) QueryThreeSidedBatch(qs []ThreeSidedQuery, workers int) ([][]Point, BatchStats, error) {
	out, per, err := s.QueryThreeSidedBatchShards(qs, workers)
	return out, foldShardStats(len(qs), per), err
}

// QueryThreeSidedBatchShards is QueryThreeSidedBatch with per-shard
// statistics.
func (s *Sharded) QueryThreeSidedBatchShards(qs []ThreeSidedQuery, workers int) ([][]Point, []ShardBatchStats, error) {
	if s.Shape() != ShapeThreeSided {
		return nil, nil, s.kindError("QueryThreeSidedBatch")
	}
	return scatterGather(s, qs, workers,
		func(splits []int64, n int, q ThreeSidedQuery) (int, int) {
			return shard.Overlap(splits, q.A1, q.A2)
		},
		func(ix Index, sub []ThreeSidedQuery, workers int) ([][]Point, BatchStats, error) {
			return ix.(ThreeSidedQuerier).QueryThreeSidedBatch(sub, workers)
		},
		mergePoints)
}

// WindowQueryBatch answers every window query across the shards; out[i]
// matches qs[i] in (X, Y, ID) order.
func (s *Sharded) WindowQueryBatch(qs []WindowQuery, workers int) ([][]Point, BatchStats, error) {
	out, per, err := s.WindowQueryBatchShards(qs, workers)
	return out, foldShardStats(len(qs), per), err
}

// WindowQueryBatchShards is WindowQueryBatch with per-shard statistics.
func (s *Sharded) WindowQueryBatchShards(qs []WindowQuery, workers int) ([][]Point, []ShardBatchStats, error) {
	if s.Shape() != ShapeWindow {
		return nil, nil, s.kindError("WindowQueryBatch")
	}
	return scatterGather(s, qs, workers,
		func(splits []int64, n int, q WindowQuery) (int, int) {
			return shard.Overlap(splits, q.X1, q.X2)
		},
		func(ix Index, sub []WindowQuery, workers int) ([][]Point, BatchStats, error) {
			return ix.(WindowQuerier).WindowQueryBatch(sub, workers)
		},
		mergePoints)
}

// StabBatch answers every stabbing query across the shards; out[i] holds
// the intervals containing qs[i] in (Lo, Hi, ID) order.
func (s *Sharded) StabBatch(qs []int64, workers int) ([][]Interval, BatchStats, error) {
	out, per, err := s.StabBatchShards(qs, workers)
	return out, foldShardStats(len(qs), per), err
}

// StabBatchShards is StabBatch with per-shard execution statistics.
func (s *Sharded) StabBatchShards(qs []int64, workers int) ([][]Interval, []ShardBatchStats, error) {
	if s.Shape() != ShapeStab {
		return nil, nil, s.kindError("StabBatch")
	}
	return scatterGather(s, qs, workers,
		func(splits []int64, n int, q int64) (int, int) {
			return stabRange(s.kind, splits, q, n)
		},
		func(ix Index, sub []int64, workers int) ([][]Interval, BatchStats, error) {
			return ix.(Stabber).StabBatch(sub, workers)
		},
		mergeIntervals)
}
