package pathcache

import (
	"fmt"
	"runtime"
	"sync"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
	"pathcache/internal/obs"
)

// This file is the parallel batch-query engine: every static (read-only)
// index type gains a *Batch method that fans a slice of queries across a
// bounded worker pool and returns the answers in input order.
//
// Work is partitioned deterministically — worker w owns queries w, w+W,
// w+2W, ... — so each worker's query/result counts depend only on the input,
// not on scheduling. Each worker routes its page accesses through an
// op-scoped disk.Counter, so the per-worker and batch-wide I/O numbers are
// exact attributions of the work this batch caused — even when other
// batches or queries drive the same index concurrently.
//
// Batch methods are safe on static indexes (and on RangeIndex while no
// Insert/Delete runs); they must not race with dynamic updates.

// TwoSidedQuery is one query corner {x >= A, y >= B} for QueryBatch.
type TwoSidedQuery struct{ A, B int64 }

// ThreeSidedQuery is one query {A1 <= x <= A2, y >= B} for
// QueryThreeSidedBatch.
type ThreeSidedQuery struct{ A1, A2, B int64 }

// WorkerBatchStats is one worker's share of a batch. The partition is by
// query index (worker w gets queries w, w+W, ...), so Queries and Results
// are deterministic. Reads and Writes come from the worker's op counter:
// exact, but under a buffer pool they depend on what is already cached.
type WorkerBatchStats struct {
	Queries   int
	Results   int
	Reads     int64 // store pages this worker's queries read
	Writes    int64 // store pages this worker's queries wrote
	CacheHits int64 // buffer-pool hits this worker's queries scored
}

// BatchStats describes one batch execution.
type BatchStats struct {
	Workers   int // workers actually used (≤ len(queries))
	Queries   int
	Results   int   // total records returned
	Reads     int64 // store pages read for this batch (sum over PerWorker)
	Writes    int64 // store pages written for this batch (sum over PerWorker)
	CacheHits int64 // buffer-pool hits for this batch (sum over PerWorker)
	// PerWorker has one entry per worker; entries sum exactly to
	// Queries/Results/Reads/Writes/CacheHits.
	PerWorker []WorkerBatchStats
}

// batchWorkers clamps a requested worker count: non-positive means
// GOMAXPROCS, and a batch never uses more workers than it has queries.
func batchWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runBatch executes n queries across the given number of workers. newRun is
// called once per worker with that worker's counted pager and returns the
// function answering query i through it; the returned function reports the
// result count for i and must write its answer to a caller-owned slot
// (disjoint per i, so no synchronization is needed). The first error by
// query order aborts the batch's remaining work on that worker; other
// workers finish their partitions.
//
// Every query is additionally recorded as one metric op tagged with its
// worker — counter deltas around the query give exact per-op I/O without a
// second counting layer — and checked against the kind's theorem bound
// (idxLen records through a bound-declaring kind; bound may be nil). With
// strict bounds armed a breach aborts the worker like a query error.
func runBatch(be *engine.Backend, kindName, opName string, idxLen, n, workers int, bound obs.BoundFunc, newRun func(p disk.Pager) func(i int) (int, error)) (BatchStats, error) {
	workers = batchWorkers(n, workers)
	st := BatchStats{
		Workers:   workers,
		Queries:   n,
		PerWorker: make([]WorkerBatchStats, workers),
	}
	counters := make([]disk.Counter, workers)
	pageSize := be.Pager().PageSize()

	errs := make([]error, workers)
	errIdx := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctr := &counters[w]
			run := newRun(be.OpPager(ctr))
			ws := &st.PerWorker[w]
			for i := w; i < n; i += workers {
				op := be.Obs().Begin(kindName, opName, w)
				before := ctr.Stats()
				beforeHits := ctr.Hits()
				t, err := run(i)
				after := ctr.Stats()
				m := obs.Measure{
					Reads:     after.Reads - before.Reads,
					Writes:    after.Writes - before.Writes,
					CacheHits: ctr.Hits() - beforeHits,
					Results:   t,
				}
				if err != nil {
					be.Obs().End(op, m) // close the op; the query error wins
					errs[w], errIdx[w] = err, i
					return
				}
				m.Bound = evalBound(bound, pageSize, idxLen, t)
				if _, serr := be.Obs().End(op, m); serr != nil {
					errs[w], errIdx[w] = publicErr(serr), i
					return
				}
				ws.Queries++
				ws.Results += t
			}
		}(w)
	}
	wg.Wait()

	for w := range st.PerWorker {
		ws := &st.PerWorker[w]
		cs := counters[w].Stats()
		ws.Reads, ws.Writes, ws.CacheHits = cs.Reads, cs.Writes, counters[w].Hits()
		st.Results += ws.Results
		st.Reads += ws.Reads
		st.Writes += ws.Writes
		st.CacheHits += ws.CacheHits
	}
	// Report the error with the smallest query index so the failure a
	// caller sees does not depend on worker scheduling.
	first, firstIdx := error(nil), n
	for w := range errs {
		if errs[w] != nil && errIdx[w] < firstIdx {
			first, firstIdx = errs[w], errIdx[w]
		}
	}
	if first != nil {
		return st, fmt.Errorf("pathcache: batch query %d: %w", firstIdx, first)
	}
	return st, nil
}

// QueryBatch answers every query with up to workers concurrent goroutines
// (workers <= 0 means GOMAXPROCS). out[i] holds the points matching qs[i],
// in input order. The index must not be mutated during the batch.
func (ix *TwoSidedIndex) QueryBatch(qs []TwoSidedQuery, workers int) ([][]Point, BatchStats, error) {
	out := make([][]Point, len(qs))
	st, err := runBatch(ix.be, ix.Kind(), "query", ix.idx.Len(), len(qs), workers, boundFor(ix.kind), func(p disk.Pager) func(i int) (int, error) {
		return func(i int) (int, error) {
			pts, _, err := ix.queryOn(p, qs[i].A, qs[i].B)
			if err != nil {
				return 0, err
			}
			out[i] = pts
			return len(pts), nil
		}
	})
	return out, st, err
}

// QueryThreeSidedBatch answers every 3-sided query concurrently; out[i]
// matches qs[i].
func (ix *ThreeSidedIndex) QueryThreeSidedBatch(qs []ThreeSidedQuery, workers int) ([][]Point, BatchStats, error) {
	out := make([][]Point, len(qs))
	st, err := runBatch(ix.be, ix.Kind(), "query", ix.idx.Len(), len(qs), workers, boundFor(kindThreeSide), func(p disk.Pager) func(i int) (int, error) {
		view := ix.idx.WithPager(p)
		return func(i int) (int, error) {
			pts, _, err := view.Query(qs[i].A1, qs[i].A2, qs[i].B)
			if err != nil {
				return 0, err
			}
			out[i] = fromRecPoints(pts)
			return len(out[i]), nil
		}
	})
	return out, st, err
}

// StabBatch answers every stabbing query concurrently; out[i] holds the
// intervals containing qs[i].
func (ix *SegmentIndex) StabBatch(qs []int64, workers int) ([][]Interval, BatchStats, error) {
	out := make([][]Interval, len(qs))
	st, err := runBatch(ix.be, ix.Kind(), "stab", ix.idx.Len(), len(qs), workers, boundFor(kindSegment), func(p disk.Pager) func(i int) (int, error) {
		view := ix.idx.WithPager(p)
		return func(i int) (int, error) {
			ivs, _, err := view.Stab(qs[i])
			if err != nil {
				return 0, err
			}
			out[i] = fromRecIntervals(ivs)
			return len(out[i]), nil
		}
	})
	return out, st, err
}

// StabBatch answers every stabbing query concurrently; out[i] holds the
// intervals containing qs[i].
func (ix *IntervalIndex) StabBatch(qs []int64, workers int) ([][]Interval, BatchStats, error) {
	out := make([][]Interval, len(qs))
	st, err := runBatch(ix.be, ix.Kind(), "stab", ix.idx.Len(), len(qs), workers, boundFor(kindInterval), func(p disk.Pager) func(i int) (int, error) {
		view := ix.idx.WithPager(p)
		return func(i int) (int, error) {
			ivs, _, err := view.Stab(qs[i])
			if err != nil {
				return 0, err
			}
			out[i] = fromRecIntervals(ivs)
			return len(out[i]), nil
		}
	})
	return out, st, err
}

// StabBatch answers every stabbing query concurrently through the
// diagonal-corner reduction; out[i] holds the intervals containing qs[i].
func (si *StabbingIndex) StabBatch(qs []int64, workers int) ([][]Interval, BatchStats, error) {
	out := make([][]Interval, len(qs))
	st, err := runBatch(si.be, si.Kind(), "stab", si.ix.idx.Len(), len(qs), workers, boundFor(kindStabbing), func(p disk.Pager) func(i int) (int, error) {
		return func(i int) (int, error) {
			pts, _, err := si.ix.queryOn(p, -qs[i], qs[i])
			if err != nil {
				return 0, err
			}
			ivs := make([]Interval, len(pts))
			for j, pt := range pts {
				ivs[j] = pointToInterval(pt)
			}
			out[i] = ivs
			return len(ivs), nil
		}
	})
	return out, st, err
}

// WindowQuery is one 4-sided query {x1 <= X <= x2, y1 <= Y <= y2} for
// WindowQueryBatch.
type WindowQuery struct{ X1, X2, Y1, Y2 int64 }

// WindowQueryBatch answers every window query concurrently; out[i] matches
// qs[i].
func (ix *WindowIndex) WindowQueryBatch(qs []WindowQuery, workers int) ([][]Point, BatchStats, error) {
	out := make([][]Point, len(qs))
	st, err := runBatch(ix.be, ix.Kind(), "query", ix.idx.Len(), len(qs), workers, boundFor(kindWindow), func(p disk.Pager) func(i int) (int, error) {
		view := ix.idx.WithPager(p)
		return func(i int) (int, error) {
			pts, _, err := view.Query(qs[i].X1, qs[i].X2, qs[i].Y1, qs[i].Y2)
			if err != nil {
				return 0, err
			}
			out[i] = fromRecPoints(pts)
			return len(out[i]), nil
		}
	})
	return out, st, err
}

// SearchBatch looks up every key concurrently; out[i] holds the values
// stored under keys[i]. No Insert or Delete may run during the batch.
func (ix *RangeIndex) SearchBatch(keys []int64, workers int) ([][]uint64, BatchStats, error) {
	out := make([][]uint64, len(keys))
	st, err := runBatch(ix.be, rangeKindName, "search", ix.idx.Len(), len(keys), workers, obs.LogBBound, func(p disk.Pager) func(i int) (int, error) {
		view := ix.idx.WithPager(p)
		return func(i int) (int, error) {
			vals, err := view.Search(keys[i])
			if err != nil {
				return 0, err
			}
			out[i] = vals
			return len(vals), nil
		}
	})
	return out, st, err
}
