package pathcache

import (
	"fmt"
	"runtime"
	"sync"
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

// batch answers every query in qs with run across up to workers
// goroutines; out[i] holds the answer to qs[i]. Each worker records its
// queries through its own recorder, tagged with its worker number, so
// every query is one metric op with exact I/O, checked against spec's
// bound. The first error by query order — a query's own or, with strict
// bounds armed, a breach — aborts the rest of that worker's partition;
// other workers finish theirs.
func batch[Q, R any](c core, spec opSpec, qs []Q, workers int, run queryFunc[Q, R]) ([][]R, BatchStats, error) {
	n := len(qs)
	out := make([][]R, n)
	workers = batchWorkers(n, workers)
	st := BatchStats{
		Workers:   workers,
		Queries:   n,
		PerWorker: make([]WorkerBatchStats, workers),
	}
	recs := make([]*recorder, workers)
	errs := make([]error, workers)
	errIdx := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		recs[w] = c.newRecorder(spec, w)
		wg.Add(1)
		go func(r *recorder, ws *WorkerBatchStats) {
			defer wg.Done()
			for i := r.worker; i < n; i += workers {
				r.begin()
				res, qst, err := run(r.pager, nil, qs[i])
				_, berr := r.end(len(res), qst, err)
				if err == nil {
					out[i] = res
					err = berr
				}
				if err != nil {
					errs[r.worker], errIdx[r.worker] = err, i
					return
				}
				ws.Queries++
				ws.Results += len(res)
			}
		}(recs[w], &st.PerWorker[w])
	}
	wg.Wait()

	for w, r := range recs {
		ws := &st.PerWorker[w]
		cs := r.ctr.Stats()
		ws.Reads, ws.Writes, ws.CacheHits = cs.Reads, cs.Writes, r.ctr.Hits()
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
		return out, st, fmt.Errorf("pathcache: batch query %d: %w", firstIdx, first)
	}
	return out, st, nil
}

// QueryBatch answers every query with up to workers concurrent goroutines
// (workers <= 0 means GOMAXPROCS). out[i] holds the points matching qs[i],
// in input order. The index must not be mutated during the batch.
func (ix *TwoSidedIndex) QueryBatch(qs []TwoSidedQuery, workers int) ([][]Point, BatchStats, error) {
	return batch(ix.core, ix.op("query"), qs, workers, ix.queryOn)
}

// QueryThreeSidedBatch answers every 3-sided query concurrently; out[i]
// matches qs[i].
func (ix *ThreeSidedIndex) QueryThreeSidedBatch(qs []ThreeSidedQuery, workers int) ([][]Point, BatchStats, error) {
	return batch(ix.core, ix.op(), qs, workers, ix.queryOn)
}

// StabBatch answers every stabbing query concurrently; out[i] holds the
// intervals containing qs[i].
func (ix *SegmentIndex) StabBatch(qs []int64, workers int) ([][]Interval, BatchStats, error) {
	return batch(ix.core, ix.op(), qs, workers, ix.stabOn)
}

// StabBatch answers every stabbing query concurrently; out[i] holds the
// intervals containing qs[i].
func (ix *IntervalIndex) StabBatch(qs []int64, workers int) ([][]Interval, BatchStats, error) {
	return batch(ix.core, ix.op(), qs, workers, ix.stabOn)
}

// StabBatch answers every stabbing query concurrently through the
// diagonal-corner reduction; out[i] holds the intervals containing qs[i].
func (si *StabbingIndex) StabBatch(qs []int64, workers int) ([][]Interval, BatchStats, error) {
	return batch(si.core, si.ix.op("stab"), qs, workers, si.stabOn)
}

// WindowQuery is one 4-sided query {x1 <= X <= x2, y1 <= Y <= y2} for
// WindowQueryBatch.
type WindowQuery struct{ X1, X2, Y1, Y2 int64 }

// WindowQueryBatch answers every window query concurrently; out[i] matches
// qs[i].
func (ix *WindowIndex) WindowQueryBatch(qs []WindowQuery, workers int) ([][]Point, BatchStats, error) {
	return batch(ix.core, ix.op(), qs, workers, ix.queryOn)
}

// SearchBatch looks up every key concurrently; out[i] holds the values
// stored under keys[i]. No Insert or Delete may run during the batch.
func (ix *RangeIndex) SearchBatch(keys []int64, workers int) ([][]uint64, BatchStats, error) {
	return batch(ix.core, ix.op(), keys, workers, ix.searchOn)
}
