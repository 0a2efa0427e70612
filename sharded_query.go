package pathcache

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

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

// mergePoints concatenates the shards' answers into one slice allocated at
// the exact total size and sorts it canonically. No answers merge to nil,
// like a single store's empty result.
func mergePoints(parts [][]Point) []Point {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	out := make([]Point, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	canonicalPoints(out, make([]Point, n))
	return out
}

// mergeIntervals is mergePoints for intervals. (Lo, Hi, ID) order is the
// (X, Y, ID) order of the field-wise copy, so the answers are concatenated
// as points, sorted by the same radix sort, and copied out once.
func mergeIntervals(parts [][]Interval) []Interval {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	buf := make([]Point, 2*n)
	pts := buf[:0:n]
	for _, p := range parts {
		for _, iv := range p {
			pts = append(pts, Point{X: iv.Lo, Y: iv.Hi, ID: iv.ID})
		}
	}
	canonicalPoints(pts, buf[n:])
	out := make([]Interval, n)
	for i, p := range pts {
		out[i] = Interval{Lo: p.X, Hi: p.Y, ID: p.ID}
	}
	return out
}

func (s *Sharded) kindError(op string) error {
	return fmt.Errorf("pathcache: %s unsupported for %s shards", op, s.ContentKind())
}

// stabFrom plans the shard range of a stabbing query at q: interval kinds
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

// gatherSerial runs one serial operation over the shard range [from, to)
// of a snapshot, collecting each shard's profile.
func gatherSerial(shards []shard.Shard, from, to int, profs *[]ShardProfile, run func(i int, ix Index) (IOProfile, error)) error {
	for i := from; i < to; i++ {
		ix, release, err := acquireShard(shards[i])
		if err != nil {
			return err
		}
		prof, err := run(i, ix)
		if rerr := release(); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
		*profs = append(*profs, ShardProfile{Shard: i, IOProfile: prof})
	}
	return nil
}

// Query answers the 2-sided query {x >= a, y >= b} across every shard
// whose key range can hold a match, merging in (X, Y, ID) order.
// Supported by "twosided" and "lsm" shards.
func (s *Sharded) Query(a, b int64) ([]Point, error) {
	pts, _, err := s.QueryProfile(a, b)
	return pts, err
}

// QueryProfile is Query plus each consulted shard's exact I/O profile.
func (s *Sharded) QueryProfile(a, b int64) ([]Point, []ShardProfile, error) {
	if s.kind != kindTwoSided && s.kind != kindLSM {
		return nil, nil, s.kindError("Query")
	}
	var parts [][]Point
	var profs []ShardProfile
	err := s.withSnapshot(func(shards []shard.Shard, splits []int64) error {
		parts, profs = nil, nil
		return gatherSerial(shards, shard.Suffix(splits, a), len(shards), &profs, func(_ int, ix Index) (IOProfile, error) {
			var pts []Point
			var prof IOProfile
			var err error
			switch t := ix.(type) {
			case *TwoSidedIndex:
				pts, prof, err = t.QueryProfile(a, b)
			case *LSMIndex:
				pts, prof, err = t.Query(a, b)
			}
			parts = append(parts, pts)
			return prof, err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return mergePoints(parts), profs, nil
}

// QueryThreeSided answers the 3-sided query {a1 <= x <= a2, y >= b} across
// the shards overlapping [a1, a2]. Supported by "threeside" shards.
func (s *Sharded) QueryThreeSided(a1, a2, b int64) ([]Point, error) {
	pts, _, err := s.QueryThreeSidedProfile(a1, a2, b)
	return pts, err
}

// QueryThreeSidedProfile is QueryThreeSided plus per-shard profiles.
func (s *Sharded) QueryThreeSidedProfile(a1, a2, b int64) ([]Point, []ShardProfile, error) {
	if s.kind != kindThreeSide {
		return nil, nil, s.kindError("QueryThreeSided")
	}
	var parts [][]Point
	var profs []ShardProfile
	err := s.withSnapshot(func(shards []shard.Shard, splits []int64) error {
		parts, profs = nil, nil
		from, to := shard.Overlap(splits, a1, a2)
		return gatherSerial(shards, from, to, &profs, func(_ int, ix Index) (IOProfile, error) {
			pts, prof, err := ix.(*ThreeSidedIndex).QueryProfile(a1, a2, b)
			parts = append(parts, pts)
			return prof, err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return mergePoints(parts), profs, nil
}

// WindowQuery answers the 4-sided query [x1, x2] × [y1, y2] across the
// shards overlapping [x1, x2]. Supported by "window" shards.
func (s *Sharded) WindowQuery(x1, x2, y1, y2 int64) ([]Point, error) {
	pts, _, err := s.WindowQueryProfile(x1, x2, y1, y2)
	return pts, err
}

// WindowQueryProfile is WindowQuery plus per-shard profiles.
func (s *Sharded) WindowQueryProfile(x1, x2, y1, y2 int64) ([]Point, []ShardProfile, error) {
	if s.kind != kindWindow {
		return nil, nil, s.kindError("WindowQuery")
	}
	var parts [][]Point
	var profs []ShardProfile
	err := s.withSnapshot(func(shards []shard.Shard, splits []int64) error {
		parts, profs = nil, nil
		from, to := shard.Overlap(splits, x1, x2)
		return gatherSerial(shards, from, to, &profs, func(_ int, ix Index) (IOProfile, error) {
			pts, prof, err := ix.(*WindowIndex).QueryProfile(x1, x2, y1, y2)
			parts = append(parts, pts)
			return prof, err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return mergePoints(parts), profs, nil
}

// Stab reports every interval containing q, merged in (Lo, Hi, ID) order.
// Supported by "segment", "interval", "stabbing" and "lsm" (on stabbing or
// interval bases) shards.
func (s *Sharded) Stab(q int64) ([]Interval, error) {
	ivs, _, err := s.StabProfile(q)
	return ivs, err
}

// StabProfile is Stab plus per-shard profiles.
func (s *Sharded) StabProfile(q int64) ([]Interval, []ShardProfile, error) {
	switch s.kind {
	case kindSegment, kindInterval, kindStabbing, kindLSM:
	default:
		return nil, nil, s.kindError("Stab")
	}
	var parts [][]Interval
	var profs []ShardProfile
	err := s.withSnapshot(func(shards []shard.Shard, splits []int64) error {
		parts, profs = nil, nil
		from, to := stabRange(s.kind, splits, q, len(shards))
		return gatherSerial(shards, from, to, &profs, func(_ int, ix Index) (IOProfile, error) {
			var ivs []Interval
			var prof IOProfile
			var err error
			switch t := ix.(type) {
			case *SegmentIndex:
				ivs, prof, err = t.StabProfile(q)
			case *IntervalIndex:
				ivs, prof, err = t.StabProfile(q)
			case *StabbingIndex:
				ivs, prof, err = t.StabProfile(q)
			case *LSMIndex:
				ivs, prof, err = t.Stab(q)
			}
			parts = append(parts, ivs)
			return prof, err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return mergeIntervals(parts), profs, nil
}

// Has reports whether the exact record (X, Y, ID) is live, consulting only
// the owning shard. Supported by "lsm" shards.
func (s *Sharded) Has(p Point) (bool, IOProfile, error) {
	if s.kind != kindLSM {
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
		ok, prof, err = ix.(*LSMIndex).Has(p)
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
	return s.update("Insert", p)
}

// Delete tombstones a record previously inserted with the same (X, Y, ID)
// in its owning shard. Supported by "lsm" shards.
func (s *Sharded) Delete(p Point) (IOProfile, error) {
	return s.update("Delete", p)
}

func (s *Sharded) update(op string, p Point) (IOProfile, error) {
	if s.kind != kindLSM {
		return IOProfile{}, s.kindError(op)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return IOProfile{}, ErrHandleClosed
	}
	shards, splits, _ := s.router.Snapshot()
	i := shard.Locate(splits, p.X)
	ix, release, err := acquireShard(shards[i])
	if err != nil {
		return IOProfile{}, err
	}
	var prof IOProfile
	if op == "Insert" {
		prof, err = ix.(*LSMIndex).Insert(p)
	} else {
		prof, err = ix.(*LSMIndex).Delete(p)
	}
	if rerr := release(); err == nil {
		err = rerr
	}
	return prof, err
}

// Flush seals every shard's memtable. Supported by "lsm" shards.
func (s *Sharded) Flush() error { return s.maintain("Flush") }

// Compact rebuilds every shard's levels tombstone-free. Supported by
// "lsm" shards.
func (s *Sharded) Compact() error { return s.maintain("Compact") }

func (s *Sharded) maintain(op string) error {
	if s.kind != kindLSM {
		return s.kindError(op)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrHandleClosed
	}
	return s.forEachShard(func(_ int, ix Index) error {
		if op == "Flush" {
			return ix.(*LSMIndex).Flush()
		}
		return ix.(*LSMIndex).Compact()
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
	if s.kind != kindTwoSided && s.kind != kindLSM {
		return nil, nil, s.kindError("QueryBatch")
	}
	return scatterGather(s, qs, workers,
		func(splits []int64, n int, q TwoSidedQuery) (int, int) {
			return shard.Suffix(splits, q.A), n
		},
		func(ix Index, sub []TwoSidedQuery, workers int) ([][]Point, BatchStats, error) {
			switch t := ix.(type) {
			case *TwoSidedIndex:
				return t.QueryBatch(sub, workers)
			case *LSMIndex:
				return t.QueryBatch(sub, workers)
			}
			return nil, BatchStats{}, s.kindError("QueryBatch")
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
	if s.kind != kindThreeSide {
		return nil, nil, s.kindError("QueryThreeSidedBatch")
	}
	return scatterGather(s, qs, workers,
		func(splits []int64, n int, q ThreeSidedQuery) (int, int) {
			return shard.Overlap(splits, q.A1, q.A2)
		},
		func(ix Index, sub []ThreeSidedQuery, workers int) ([][]Point, BatchStats, error) {
			return ix.(*ThreeSidedIndex).QueryBatch(sub, workers)
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
	if s.kind != kindWindow {
		return nil, nil, s.kindError("WindowQueryBatch")
	}
	return scatterGather(s, qs, workers,
		func(splits []int64, n int, q WindowQuery) (int, int) {
			return shard.Overlap(splits, q.X1, q.X2)
		},
		func(ix Index, sub []WindowQuery, workers int) ([][]Point, BatchStats, error) {
			return ix.(*WindowIndex).QueryBatch(sub, workers)
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
	switch s.kind {
	case kindSegment, kindInterval, kindStabbing, kindLSM:
	default:
		return nil, nil, s.kindError("StabBatch")
	}
	return scatterGather(s, qs, workers,
		func(splits []int64, n int, q int64) (int, int) {
			return stabRange(s.kind, splits, q, n)
		},
		func(ix Index, sub []int64, workers int) ([][]Interval, BatchStats, error) {
			switch t := ix.(type) {
			case *SegmentIndex:
				return t.StabBatch(sub, workers)
			case *IntervalIndex:
				return t.StabBatch(sub, workers)
			case *StabbingIndex:
				return t.StabBatch(sub, workers)
			case *LSMIndex:
				return t.StabBatch(sub, workers)
			}
			return nil, BatchStats{}, s.kindError("StabBatch")
		},
		mergeIntervals)
}
