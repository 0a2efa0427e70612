package pathcache

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// These tests pin the public observability surface: Metrics() snapshots,
// the WithTracer hook, and the strict bound sentinels — including the
// deliberately-broken fixture (sentinels tightened far below any real
// query's I/O) that proves a breach surfaces as ErrBoundExceeded carrying
// the op's full trace.

// brokenBoundOpts arms the sentinels with limits no real query can meet:
// any operation that reads at least one page breaches.
func brokenBoundOpts() *Options {
	return &Options{
		PageSize:      512,
		StrictBounds:  true,
		BoundMaxRatio: 0.001,
		BoundSlack:    0.001,
	}
}

func TestStrictBreachCarriesTrace(t *testing.T) {
	pts := uniformPoints(3_000, 100_000, 1201)
	// The build itself must succeed: builds declare no bound, so even
	// absurd sentinel limits cannot fail construction.
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, brokenBoundOpts())
	if err != nil {
		t.Fatalf("strict build failed: %v", err)
	}
	defer ix.Close()

	res, prof, err := ix.QueryProfile(50_000, 50_000)
	if !errors.Is(err, ErrBoundExceeded) {
		t.Fatalf("query error = %v, want ErrBoundExceeded", err)
	}
	if res != nil {
		t.Fatal("breached query still returned results")
	}
	var be *BoundError
	if !errors.As(err, &be) {
		t.Fatalf("error %T does not unpack to *BoundError", err)
	}
	ev := be.Event
	if ev.Kind != "twosided" || ev.Name != "query" || ev.Worker != SerialWorker {
		t.Fatalf("trace identity %s/%s worker=%d", ev.Kind, ev.Name, ev.Worker)
	}
	if ev.Reads <= 0 || ev.Bound <= 0 || ev.Ratio <= 0 || ev.Seq == 0 || ev.Start.IsZero() {
		t.Fatalf("trace incomplete: %+v", ev)
	}
	// The profile still reports the exact I/O the breached op performed.
	if prof.Reads != ev.Reads || prof.BoundRatio != ev.Ratio {
		t.Fatalf("profile (%d reads, ratio %v) disagrees with trace (%d, %v)",
			prof.Reads, prof.BoundRatio, ev.Reads, ev.Ratio)
	}
	if !strings.Contains(err.Error(), "twosided/query") {
		t.Fatalf("error text %q misses the trace", err)
	}
}

func TestStrictBreachInBatch(t *testing.T) {
	pts := uniformPoints(3_000, 100_000, 1203)
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, brokenBoundOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	_, _, err = ix.QueryBatch(batchQueries2(20, 1204), 4)
	if !errors.Is(err, ErrBoundExceeded) {
		t.Fatalf("batch error = %v, want ErrBoundExceeded", err)
	}
	var be *BoundError
	if !errors.As(err, &be) {
		t.Fatalf("batch error %T does not unpack to *BoundError", err)
	}
	if be.Event.Worker < 0 {
		t.Fatalf("batch breach traced to worker %d, want a real worker tag", be.Event.Worker)
	}
}

// Within the default sentinel limits the same workloads pass — the strict
// property suite (boundprop_test.go) covers this across all kinds; here we
// just pin that StrictBounds alone does not change results.
func TestStrictDefaultsPass(t *testing.T) {
	pts := uniformPoints(3_000, 100_000, 1205)
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: 512, StrictBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	res, _, err := ix.Query(50_000, 50_000)
	if err != nil {
		t.Fatalf("strict query failed within default limits: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("query returned nothing")
	}
}

// recordingTracer collects trace events; must be concurrency-safe because
// batch workers emit in parallel.
type recordingTracer struct {
	mu     sync.Mutex
	starts []TraceOp
	ends   []TraceEvent
}

func (r *recordingTracer) OpStart(op TraceOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, op)
}

func (r *recordingTracer) OpEnd(ev TraceEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, ev)
}

func TestWithTracerSeesEveryOp(t *testing.T) {
	tr := &recordingTracer{}
	opts := (&Options{PageSize: 512}).WithTracer(tr)
	ix, err := NewSegmentIndex(uniformIntervals(800, 100_000, 10_000, 1207), true, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for q := int64(0); q < 5; q++ {
		if _, _, err := ix.Stab(q * 20_000); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ix.StabBatch([]int64{10, 20, 30, 40}, 2); err != nil {
		t.Fatal(err)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	// 1 build + 5 serial stabs + 4 batch stabs.
	if len(tr.starts) != 10 || len(tr.ends) != 10 {
		t.Fatalf("tracer saw %d starts / %d ends, want 10 each", len(tr.starts), len(tr.ends))
	}
	counts := map[string]int{}
	for _, ev := range tr.ends {
		if ev.Kind != "segment" {
			t.Fatalf("event kind %q, want segment", ev.Kind)
		}
		counts[ev.Name]++
		if ev.Name == "build" {
			if ev.Worker != SerialWorker || ev.Writes == 0 || ev.Bound != 0 {
				t.Fatalf("build event %+v", ev)
			}
		}
		if ev.Name == "stab" && ev.Bound <= 0 {
			t.Fatalf("stab event missing bound: %+v", ev)
		}
	}
	if counts["build"] != 1 || counts["stab"] != 9 {
		t.Fatalf("op counts %v, want 1 build + 9 stabs", counts)
	}
}

func TestMetricsSnapshotAndReset(t *testing.T) {
	pts := uniformPoints(2_000, 100_000, 1209)
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for i := 0; i < 6; i++ {
		if _, _, err := ix.Query(int64(i)*10_000, 40_000); err != nil {
			t.Fatal(err)
		}
	}

	m := ix.Metrics()
	if m.Inflight != 0 {
		t.Fatalf("Inflight = %d at rest", m.Inflight)
	}
	byName := map[string]OpMetrics{}
	for _, s := range m.Ops {
		if s.Kind != "twosided" || s.Worker != SerialWorker {
			t.Fatalf("unexpected series %+v", s)
		}
		byName[s.Name] = s
	}
	b, ok := byName["build"]
	if !ok || b.Ops != 1 || b.Writes.Sum == 0 {
		t.Fatalf("build series %+v (present=%v)", b, ok)
	}
	q, ok := byName["query"]
	if !ok || q.Ops != 6 || q.Reads.Count != 6 || q.BoundRatios.Count != 6 {
		t.Fatalf("query series %+v (present=%v)", q, ok)
	}
	if q.MaxBoundRatio <= 0 {
		t.Fatal("query series carries no bound ratio")
	}
	var bucketSum int64
	for _, bk := range q.Reads.Buckets {
		bucketSum += bk.Count
	}
	if bucketSum != q.Reads.Count {
		t.Fatalf("reads buckets sum to %d, count %d", bucketSum, q.Reads.Count)
	}

	ix.ResetMetrics()
	if m := ix.Metrics(); len(m.Ops) != 0 {
		t.Fatalf("Metrics after ResetMetrics holds %d series", len(m.Ops))
	}
}

// Serial per-op attribution: one query's metric series delta must equal
// the store-level Stats diff of that query (the histograms-sum invariant
// at its smallest scale; the concurrent version lives in batch_test.go).
func TestMetricsSumMatchesStatsDiff(t *testing.T) {
	ivs := uniformIntervals(2_000, 100_000, 10_000, 1211)
	ix, err := NewIntervalIndex(ivs, true, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	ix.ResetMetrics()
	before := ix.Stats()
	for q := int64(0); q < 8; q++ {
		if _, _, err := ix.Stab(q * 12_000); err != nil {
			t.Fatal(err)
		}
	}
	after := ix.Stats()

	var reads, writes int64
	for _, s := range ix.Metrics().Ops {
		reads += s.Reads.Sum
		writes += s.Writes.Sum
	}
	if reads != after.Reads-before.Reads {
		t.Fatalf("metric reads %d != store diff %d", reads, after.Reads-before.Reads)
	}
	if writes != after.Writes-before.Writes {
		t.Fatalf("metric writes %d != store diff %d", writes, after.Writes-before.Writes)
	}
}
