package pathcache

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/workload"
)

func batchQueries2(n int, seed int64) []TwoSidedQuery {
	qs := workload.TwoSidedQueries(n, 100_000, 0.01, seed)
	out := make([]TwoSidedQuery, len(qs))
	for i, q := range qs {
		out[i] = TwoSidedQuery{A: q.A, B: q.B}
	}
	return out
}

// QueryBatch must return exactly the serial answers, in input order, for
// any worker count — including through a shared buffer pool. Run with -race.
func TestQueryBatchMatchesSerial(t *testing.T) {
	pts := uniformPoints(5_000, 100_000, 901)
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: 512, BufferPoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	qs := batchQueries2(40, 903)
	want := make([][]Point, len(qs))
	for i, q := range qs {
		if want[i], _, err = ix.Query(q.A, q.B); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8, 0} {
		got, st, err := ix.QueryBatch(qs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batch results differ from serial", workers)
		}
		if st.Queries != len(qs) {
			t.Fatalf("workers=%d: stats queries %d, want %d", workers, st.Queries, len(qs))
		}
		var q, r int
		for _, ws := range st.PerWorker {
			q += ws.Queries
			r += ws.Results
		}
		if q != st.Queries || r != st.Results {
			t.Fatalf("workers=%d: per-worker sums (%d,%d) != totals (%d,%d)",
				workers, q, r, st.Queries, st.Results)
		}
		total := 0
		for _, pts := range want {
			total += len(pts)
		}
		if st.Results != total {
			t.Fatalf("workers=%d: results %d, want %d", workers, st.Results, total)
		}
	}
}

// Per-worker query/result counts depend only on the input partition, never
// on scheduling: two executions with the same worker count report identical
// counts. Reads/Writes are exact attributions but not run-stable under a
// buffer pool (the first batch warms it), so they are checked for
// consistency with the batch totals instead.
func TestBatchPerWorkerStatsDeterministic(t *testing.T) {
	pts := uniformPoints(5_000, 100_000, 905)
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: 512, BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	qs := batchQueries2(37, 907)
	_, st1, err := ix.QueryBatch(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := ix.QueryBatch(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	type partition struct{ Queries, Results int }
	part := func(ws []WorkerBatchStats) []partition {
		out := make([]partition, len(ws))
		for i, w := range ws {
			out[i] = partition{w.Queries, w.Results}
		}
		return out
	}
	if !reflect.DeepEqual(part(st1.PerWorker), part(st2.PerWorker)) {
		t.Fatalf("per-worker stats drifted between runs:\n%+v\n%+v", st1.PerWorker, st2.PerWorker)
	}
	if st1.Workers != 4 || len(st1.PerWorker) != 4 {
		t.Fatalf("workers = %d (%d per-worker entries), want 4", st1.Workers, len(st1.PerWorker))
	}
	for _, st := range []BatchStats{st1, st2} {
		var r, w int64
		for _, ws := range st.PerWorker {
			if ws.Reads < 0 || ws.Writes < 0 {
				t.Fatalf("negative per-worker I/O: %+v", ws)
			}
			r += ws.Reads
			w += ws.Writes
		}
		if r != st.Reads || w != st.Writes {
			t.Fatalf("per-worker I/O (%d,%d) does not sum to batch totals (%d,%d)",
				r, w, st.Reads, st.Writes)
		}
	}
}

// Every batch-capable index type answers identically to its serial path
// and records every query as the serial path does. Each kind's store has
// no pool, so a query's reads do not depend on what ran before it: the
// batch op recorded for query i must carry the serial op's Reads, Results
// and Bound. Serial and batch methods run one per-query function through
// one recorder, and this pins it.
func TestBatchAllIndexTypes(t *testing.T) {
	pts := uniformPoints(3_000, 100_000, 911)
	ivs := uniformIntervals(3_000, 100_000, 5_000, 913)
	stabs := workload.StabQueries(24, 105_000, 915)
	tr := &recordingTracer{}
	opts := (&Options{PageSize: 512}).WithTracer(tr)

	two, err := NewTwoSidedIndex(pts, SchemeSegmented, opts)
	if err != nil {
		t.Fatal(err)
	}
	q2 := batchQueries2(24, 916)
	checkBatchParity(t, tr, "twosided", len(q2), 4,
		func(i int) ([]Point, error) { pts, _, err := two.Query(q2[i].A, q2[i].B); return pts, err },
		func(w int) ([][]Point, BatchStats, error) { return two.QueryBatch(q2, w) })

	three, err := NewThreeSidedIndex(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	q3raw := workload.ThreeSidedQueries(24, 100_000, 0.2, 0.01, 917)
	q3 := make([]ThreeSidedQuery, len(q3raw))
	for i, q := range q3raw {
		q3[i] = ThreeSidedQuery{A1: q.A1, A2: q.A2, B: q.B}
	}
	st3 := checkBatchParity(t, tr, "threeside", len(q3), 6,
		func(i int) ([]Point, error) {
			pts, _, err := three.QueryThreeSided(q3[i].A1, q3[i].A2, q3[i].B)
			return pts, err
		},
		func(w int) ([][]Point, BatchStats, error) { return three.QueryThreeSidedBatch(q3, w) })
	if st3.Reads == 0 {
		t.Fatal("3-sided batch reported zero reads")
	}

	win, err := NewWindowIndex(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	qw := make([]WindowQuery, 24)
	for i := range qw {
		x, y := int64(i)*4_000, int64(i*7%24)*4_000
		qw[i] = WindowQuery{X1: x, X2: x + 10_000, Y1: y, Y2: y + 20_000}
	}
	checkBatchParity(t, tr, "window", len(qw), 5,
		func(i int) ([]Point, error) {
			pts, _, err := win.WindowQuery(qw[i].X1, qw[i].X2, qw[i].Y1, qw[i].Y2)
			return pts, err
		},
		func(w int) ([][]Point, BatchStats, error) { return win.WindowQueryBatch(qw, w) })

	seg, err := NewSegmentIndex(ivs, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	itv, err := NewIntervalIndex(ivs, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	stab, err := NewStabbingIndex(ivs, SchemeSegmented, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]Stabber{"segment": seg, "interval": itv, "stabbing": stab} {
		checkBatchParity(t, tr, name, len(stabs), 5,
			func(i int) ([]Interval, error) { ivs, _, err := ix.Stab(stabs[i]); return ivs, err },
			func(w int) ([][]Interval, BatchStats, error) { return ix.StabBatch(stabs, w) })
	}

	// The stabbing reduction's batch also answers as serially through a
	// shared buffer pool.
	pooled, err := NewStabbingIndex(ivs, SchemeSegmented, &Options{PageSize: 512, BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Interval, len(stabs))
	for i, q := range stabs {
		if want[i], _, err = pooled.Stab(q); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := pooled.StabBatch(stabs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pooled stabbing: batch differs from serial")
	}

	rng, err := NewRangeIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:1_000] {
		if err := rng.Insert(p.X, p.ID); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]int64, 50)
	for i := range keys {
		keys[i] = pts[i*3].X
	}
	stR := checkBatchParity(t, tr, "range", len(keys), 7,
		func(i int) ([]uint64, error) { return rng.Search(keys[i]) },
		func(w int) ([][]uint64, BatchStats, error) { return rng.SearchBatch(keys, w) })
	if stR.Workers != 7 {
		t.Fatalf("range batch workers = %d, want 7", stR.Workers)
	}
}

// checkBatchParity answers n queries serially and then as one batch of the
// given width on an index whose store records into tr. The answers must be
// equal, and so must each query's serial and batch op in Reads, Results
// and Bound. A batch worker w runs queries w, w+W, ... in order, so its
// ops in sequence order map back to their queries.
func checkBatchParity[R any](t *testing.T, tr *recordingTracer, name string, n, workers int,
	serial func(i int) ([]R, error), batch func(workers int) ([][]R, BatchStats, error)) BatchStats {
	t.Helper()
	ops := func() []TraceEvent {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		evs := tr.ends
		tr.starts, tr.ends = nil, nil
		return evs
	}
	ops() // drop the build and any earlier kind's ops
	want := make([][]R, n)
	for i := range want {
		var err error
		if want[i], err = serial(i); err != nil {
			t.Fatalf("%s: serial query %d: %v", name, i, err)
		}
	}
	serialOps := ops()
	got, st, err := batch(workers)
	if err != nil {
		t.Fatalf("%s: batch: %v", name, err)
	}
	batchOps := ops()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: batch differs from serial", name)
	}
	if len(serialOps) != n || len(batchOps) != n {
		t.Fatalf("%s: %d serial and %d batch ops recorded, want %d each", name, len(serialOps), len(batchOps), n)
	}
	byQuery := make([]TraceEvent, n)
	next := make([]int, st.Workers) // next query of each worker
	for w := range next {
		next[w] = w
	}
	sort.Slice(batchOps, func(i, j int) bool { return batchOps[i].Seq < batchOps[j].Seq })
	for _, ev := range batchOps {
		if ev.Worker < 0 || ev.Worker >= st.Workers {
			t.Fatalf("%s: batch op from worker %d of %d", name, ev.Worker, st.Workers)
		}
		byQuery[next[ev.Worker]] = ev
		next[ev.Worker] += st.Workers
	}
	for i, s := range serialOps {
		b := byQuery[i]
		if s.Worker != SerialWorker || b.Kind != s.Kind || b.Name != s.Name {
			t.Fatalf("%s: query %d recorded as %s/%s worker %d serially, %s/%s in the batch",
				name, i, s.Kind, s.Name, s.Worker, b.Kind, b.Name)
		}
		if b.Reads != s.Reads || b.Results != s.Results || b.Bound != s.Bound {
			t.Fatalf("%s: query %d: batch op reads=%d results=%d bound=%v, serial op reads=%d results=%d bound=%v",
				name, i, b.Reads, b.Results, b.Bound, s.Reads, s.Results, s.Bound)
		}
	}
	return st
}

// Worker counts clamp: more workers than queries collapses to one worker
// per query, and an empty batch is a no-op.
func TestBatchWorkerClamping(t *testing.T) {
	pts := uniformPoints(500, 10_000, 921)
	ix, err := NewTwoSidedIndex(pts, SchemeBasic, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	qs := batchQueries2(3, 923)
	_, st, err := ix.QueryBatch(qs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 {
		t.Fatalf("workers = %d, want 3 (clamped to query count)", st.Workers)
	}
	out, st0, err := ix.QueryBatch(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || st0.Queries != 0 || st0.Results != 0 {
		t.Fatalf("empty batch: out=%d stats=%+v", len(out), st0)
	}
}

// A failing query surfaces as an error naming the smallest failing query
// index, regardless of scheduling, and the index stays usable afterwards.
func TestBatchErrorPropagation(t *testing.T) {
	var fp *disk.FaultPager
	opts := &Options{PageSize: 512, WrapPager: func(p disk.Pager) disk.Pager {
		fp = disk.NewFaultPager(p, 1<<40)
		return fp
	}}
	pts := uniformPoints(2_000, 100_000, 925)
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, opts)
	if err != nil {
		t.Fatal(err)
	}
	qs := batchQueries2(16, 927)
	want, _, err := ix.QueryBatch(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	fp.SetBudget(3)
	if _, _, err := ix.QueryBatch(qs, 4); !errors.Is(err, disk.ErrInjected) {
		t.Fatalf("starved batch: err=%v, want ErrInjected", err)
	}
	fp.SetBudget(1 << 40)
	got, _, err := ix.QueryBatch(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results changed after failed batch")
	}
}

// Two batches running concurrently over one shared index must each report
// exactly the I/O they caused: per-worker counts are non-negative and sum
// to their batch's totals, and the two batches' totals together account for
// the store-level counter movement over the window — the op-counter
// attribution invariant. The old implementation diffed the global counters
// per batch, so concurrent batches double-counted each other's I/O. Run
// with -race.
func TestConcurrentBatchesExactIO(t *testing.T) {
	for _, pool := range []int{0, 32} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
			pts := uniformPoints(5_000, 100_000, 931)
			ix, err := NewTwoSidedIndex(pts, SchemeSegmented,
				&Options{PageSize: 512, BufferPoolPages: pool})
			if err != nil {
				t.Fatal(err)
			}
			qsA := batchQueries2(40, 933)
			qsB := batchQueries2(40, 935)

			before := ix.Stats()
			var stA, stB BatchStats
			var errA, errB error
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); _, stA, errA = ix.QueryBatch(qsA, 4) }()
			go func() { defer wg.Done(); _, stB, errB = ix.QueryBatch(qsB, 4) }()
			wg.Wait()
			if errA != nil || errB != nil {
				t.Fatalf("batch errors: %v / %v", errA, errB)
			}
			after := ix.Stats()

			for name, st := range map[string]BatchStats{"A": stA, "B": stB} {
				var r, w int64
				for _, ws := range st.PerWorker {
					if ws.Reads < 0 || ws.Writes < 0 {
						t.Fatalf("batch %s: negative per-worker I/O: %+v", name, ws)
					}
					r += ws.Reads
					w += ws.Writes
				}
				if r != st.Reads || w != st.Writes {
					t.Fatalf("batch %s: per-worker I/O (%d,%d) != batch totals (%d,%d)",
						name, r, w, st.Reads, st.Writes)
				}
			}

			dr := after.Reads - before.Reads
			dw := after.Writes - before.Writes
			if got := stA.Reads + stB.Reads; got != dr {
				t.Fatalf("attributed reads %d (A=%d B=%d) != store diff %d",
					got, stA.Reads, stB.Reads, dr)
			}
			if got := stA.Writes + stB.Writes; got != dw {
				t.Fatalf("attributed writes %d (A=%d B=%d) != store diff %d",
					got, stA.Writes, stB.Writes, dw)
			}
			if pool == 0 && stA.Reads == 0 {
				t.Fatal("uncached batch A reported zero reads")
			}

			// The metric series carry the same attribution: batch queries
			// are the only ops recorded with a real worker tag, and their
			// per-op read histograms must sum to the same store diff the
			// counters rebuilt above.
			var mOps, mReads, mWrites int64
			for _, s := range ix.Metrics().Ops {
				if s.Worker < 0 {
					continue // serial series: the build
				}
				if s.Kind != "twosided" || s.Name != "query" {
					t.Fatalf("unexpected worker series %s/%s", s.Kind, s.Name)
				}
				mOps += s.Ops
				mReads += s.Reads.Sum
				mWrites += s.Writes.Sum
			}
			if want := int64(len(qsA) + len(qsB)); mOps != want {
				t.Fatalf("worker series record %d ops, want %d", mOps, want)
			}
			if mReads != dr || mWrites != dw {
				t.Fatalf("per-op histogram I/O (%d,%d) != store diff (%d,%d)",
					mReads, mWrites, dr, dw)
			}
		})
	}
}

// QueryProfile's Reads/Writes come from an op-scoped counter: serially they
// must match the store-level movement of the same query exactly.
func TestQueryProfileCountsOpIO(t *testing.T) {
	pts := uniformPoints(3_000, 100_000, 941)
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	before := ix.Stats()
	_, prof, err := ix.QueryProfile(50_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	after := ix.Stats()
	if prof.Reads != after.Reads-before.Reads {
		t.Fatalf("profile reads %d != store diff %d", prof.Reads, after.Reads-before.Reads)
	}
	if prof.Writes != 0 {
		t.Fatalf("read-only query reported %d writes", prof.Writes)
	}
	if prof.Reads == 0 {
		t.Fatal("uncached profile reported zero reads")
	}
}
