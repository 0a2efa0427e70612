package obs

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// The package promise is exact totals under concurrency: every Add and
// Observe lands on exactly one atomic, so after the goroutines join the
// folded totals equal the arithmetic sum of what was recorded. Run these
// with -race; they are the tentpole's concurrency proof for the metric
// primitives.

const (
	hammerGoroutines = 16
	hammerOps        = 5_000
)

func hammer(f func(g, i int)) {
	var wg sync.WaitGroup
	for g := 0; g < hammerGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < hammerOps; i++ {
				f(g, i)
			}
		}(g)
	}
	wg.Wait()
}

func TestCounterExactUnderConcurrency(t *testing.T) {
	var c Counter
	hammer(func(g, i int) { c.Add(uint64(g), 2) })
	if want := int64(2 * hammerGoroutines * hammerOps); c.Total() != want {
		t.Fatalf("Total() = %d, want %d", c.Total(), want)
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatalf("Total() after Reset = %d", c.Total())
	}
}

// Stripe selection must not change the sum: adds with every hint value
// fold into one exact total.
func TestCounterStripesFold(t *testing.T) {
	var c Counter
	for hint := uint64(0); hint < 64; hint++ {
		c.Add(hint, int64(hint))
	}
	if want := int64(64 * 63 / 2); c.Total() != want {
		t.Fatalf("Total() = %d, want %d", c.Total(), want)
	}
}

func TestGaugeExactUnderConcurrency(t *testing.T) {
	var g Gauge
	hammer(func(_, i int) {
		g.Inc()
		if i%2 == 1 {
			g.Dec()
			g.Dec()
		}
	})
	// Per goroutine: hammerOps incs, 2*(hammerOps/2) decs — net zero.
	if g.Load() != 0 {
		t.Fatalf("Load() = %d, want 0", g.Load())
	}
	g.Set(7)
	if g.Load() != 7 {
		t.Fatalf("Load() after Set = %d, want 7", g.Load())
	}
}

func TestHistogramExactUnderConcurrency(t *testing.T) {
	var h Histogram
	hammer(func(g, i int) { h.Observe(int64(i % 100)) })
	s := h.Snapshot()
	if want := int64(hammerGoroutines * hammerOps); s.Count != want {
		t.Fatalf("Count = %d, want %d", s.Count, want)
	}
	// Each goroutine observes 0..99 fifty times: sum = 50 * 4950 per goroutine.
	if want := int64(hammerGoroutines * (hammerOps / 100) * (99 * 100 / 2)); s.Sum != want {
		t.Fatalf("Sum = %d, want %d", s.Sum, want)
	}
	if s.Min != 0 || s.Max != 99 {
		t.Fatalf("Min/Max = %d/%d, want 0/99", s.Min, s.Max)
	}
	var bucketSum int64
	for _, b := range s.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != s.Count {
		t.Fatalf("buckets sum to %d, Count is %d", bucketSum, s.Count)
	}
}

// The log₂ bucket layout is part of the public contract (pcbench reports
// and pcindex stats print it): bucket 0 holds non-positive samples, bucket
// i holds [2^(i-1), 2^i), and the last bucket absorbs the rest.
func TestHistogramBucketLayout(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 8, math.MaxInt64} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []Bucket{
		{Lo: 0, Hi: 0, Count: 1},
		{Lo: 1, Hi: 1, Count: 1},
		{Lo: 2, Hi: 3, Count: 2},
		{Lo: 4, Hi: 7, Count: 1},
		{Lo: 8, Hi: 15, Count: 1},
		{Lo: 1 << 32, Hi: math.MaxInt64, Count: 1},
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("got %d non-empty buckets %v, want %d", len(s.Buckets), s.Buckets, len(want))
	}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
	if s.Min != 0 || s.Max != math.MaxInt64 {
		t.Fatalf("Min/Max = %d/%d", s.Min, s.Max)
	}
	if got := s.String(); !strings.Contains(got, "[2,3]:2") || !strings.Contains(got, "+inf") {
		t.Fatalf("String() = %q misses bucket rendering", got)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(5)
	h.Reset()
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 || len(s.Buckets) != 0 {
		t.Fatalf("Snapshot after Reset = %+v", s)
	}
	h.Observe(9)
	if s := h.Snapshot(); s.Min != 9 || s.Max != 9 {
		t.Fatalf("Min/Max after Reset+Observe = %d/%d, want 9/9", s.Min, s.Max)
	}
}

// The bound functions are the executable statements of the theorems; pin
// their arithmetic so a refactor cannot silently weaken the sentinels.
func TestBoundFuncs(t *testing.T) {
	// PathLen counts search levels: 1 for n <= 1, plus one per power of the
	// base below n.
	cases := []struct {
		n, b, t int
		want    float64
	}{
		{1, 10, 0, 1},
		{10, 10, 0, 2},
		{1000, 10, 0, 4},
		{1000, 10, 20, 6}, // 4 levels + 20/10 output pages
	}
	for _, c := range cases {
		if got := LogBBound(c.n, c.b, c.t); got != c.want {
			t.Fatalf("LogBBound(%d,%d,%d) = %v, want %v", c.n, c.b, c.t, got, c.want)
		}
	}
	// 1000 records at 10 per leaf is 100 leaves; a binary range tree over
	// them has 8 levels by the same counting.
	if got := RangeTreeBound(1000, 10, 0); got != 8 {
		t.Fatalf("RangeTreeBound(1000,10,0) = %v, want 8", got)
	}
	if got := RangeTreeBound(1000, 10, 30); got != 11 {
		t.Fatalf("RangeTreeBound(1000,10,30) = %v, want 11", got)
	}
}

// PathLen is ⌈log_b n⌉ + 1, checked at b^k − 1, b^k and b^k + 1 for every
// power of b up to an int32 record count.
func TestPathLen(t *testing.T) {
	for _, b := range []int{2, 3, 4, 5, 16, 170, 341} {
		for k, pow := 1, b; pow <= math.MaxInt32; k, pow = k+1, pow*b {
			cases := [][2]int{{pow, k}, {pow + 1, k + 1}} // {n, ⌈log_b n⌉}
			if pow-1 > pow/b {
				cases = append(cases, [2]int{pow - 1, k})
			}
			for _, c := range cases {
				if got := PathLen(c[0], b); got != c[1]+1 {
					t.Errorf("PathLen(%d, %d) = %d, want %d", c[0], b, got, c[1]+1)
				}
			}
		}
	}
	for _, n := range []int{-1, 0, 1} {
		if got := PathLen(n, 16); got != 1 {
			t.Errorf("PathLen(%d, 16) = %d, want 1", n, got)
		}
	}
	if got, want := PathLen(100, 1), PathLen(100, 2); got != want {
		t.Errorf("PathLen(100, 1) = %d, want base 2's %d", got, want)
	}
}

// Sixteen workers record disjoint op streams concurrently; the snapshot
// must show exact per-series and aggregate totals, and the inflight gauge
// must return to zero.
func TestRegistryConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < hammerGoroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1_000; i++ {
				op := r.Begin("twosided", "query", w)
				if _, err := r.End(op, Measure{Reads: 3, Writes: 1, CacheHits: 2, Results: 5, Bound: 6}); err != nil {
					t.Errorf("worker %d: End: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	if snap.Inflight != 0 {
		t.Fatalf("Inflight = %d after all ops ended", snap.Inflight)
	}
	if len(snap.Series) != hammerGoroutines {
		t.Fatalf("got %d series, want %d (one per worker)", len(snap.Series), hammerGoroutines)
	}
	var totalOps, totalReads, totalHits, totalResults int64
	for i, s := range snap.Series {
		if s.Kind != "twosided" || s.Name != "query" || s.Worker != i {
			t.Fatalf("series %d identity = %s/%s worker=%d", i, s.Kind, s.Name, s.Worker)
		}
		if s.Ops != 1_000 || s.Reads.Count != 1_000 || s.Ratios.Count != 1_000 {
			t.Fatalf("series %d: ops=%d reads.count=%d ratios.count=%d, want 1000 each",
				i, s.Ops, s.Reads.Count, s.Ratios.Count)
		}
		if s.MaxRatio != 0.5 {
			t.Fatalf("series %d: MaxRatio = %v, want 0.5", i, s.MaxRatio)
		}
		totalOps += s.Ops
		totalReads += s.Reads.Sum
		totalHits += s.Hits.Sum
		totalResults += s.Results
	}
	const ops = hammerGoroutines * 1_000
	if totalOps != ops || totalReads != 3*ops || totalHits != 2*ops || totalResults != 5*ops {
		t.Fatalf("totals ops=%d reads=%d hits=%d results=%d, want %d/%d/%d/%d",
			totalOps, totalReads, totalHits, totalResults, ops, int64(3*ops), int64(2*ops), int64(5*ops))
	}

	r.Reset()
	if s := r.Snapshot(); len(s.Series) != 0 {
		t.Fatalf("Snapshot after Reset holds %d series", len(s.Series))
	}
}

// A strict-mode breach must return a *BoundError wrapping ErrBoundExceeded
// and carrying the exact event; within limits End stays silent.
func TestRegistryStrictBreach(t *testing.T) {
	r := NewRegistry()
	r.SetStrict(true)
	r.SetLimits(2, 1)
	if maxRatio, slack := r.Limits(); maxRatio != 2 || slack != 1 {
		t.Fatalf("Limits() = %v, %v", maxRatio, slack)
	}

	// 2×4+1 = 9 allowed reads: 9 passes, 10 breaches.
	op := r.Begin("twosided", "query", SerialWorker)
	if _, err := r.End(op, Measure{Reads: 9, Bound: 4}); err != nil {
		t.Fatalf("reads at the limit: unexpected error %v", err)
	}
	op = r.Begin("twosided", "query", SerialWorker)
	_, err := r.End(op, Measure{Reads: 10, Results: 3, Bound: 4})
	if !errors.Is(err, ErrBoundExceeded) {
		t.Fatalf("breach error = %v, want ErrBoundExceeded", err)
	}
	var be *BoundError
	if !errors.As(err, &be) {
		t.Fatalf("breach error %T does not unpack to *BoundError", err)
	}
	if be.Event.Kind != "twosided" || be.Event.Name != "query" || be.Event.Reads != 10 ||
		be.Event.Results != 3 || be.Event.Seq == 0 || be.Event.Ratio != 2.5 {
		t.Fatalf("BoundError trace incomplete: %+v", be.Event)
	}
	if !strings.Contains(err.Error(), "twosided/query") || !strings.Contains(err.Error(), "10 reads") {
		t.Fatalf("BoundError text %q misses the trace", err)
	}

	// Bound-less ops (builds) never trip the sentinel.
	op = r.Begin("twosided", "build", SerialWorker)
	if _, err := r.End(op, Measure{Reads: 1 << 20}); err != nil {
		t.Fatalf("bound-less op tripped the sentinel: %v", err)
	}

	// Strict off: the same breach is recorded but not reported.
	r.SetStrict(false)
	op = r.Begin("twosided", "query", SerialWorker)
	if _, err := r.End(op, Measure{Reads: 10, Bound: 4}); err != nil {
		t.Fatalf("disarmed sentinel still fired: %v", err)
	}
}

// traceRecorder is a minimal concurrent-safe Tracer.
type traceRecorder struct {
	mu     sync.Mutex
	starts []Op
	ends   []Event
}

func (tr *traceRecorder) OpStart(op Op) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.starts = append(tr.starts, op)
}

func (tr *traceRecorder) OpEnd(ev Event) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ends = append(tr.ends, ev)
}

func TestRegistryTracer(t *testing.T) {
	r := NewRegistry()
	tr := &traceRecorder{}
	r.SetTracer(tr)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				op := r.Begin("segment", "stab", w)
				r.End(op, Measure{Reads: 1, Bound: 2})
			}
		}(w)
	}
	wg.Wait()
	if len(tr.starts) != 200 || len(tr.ends) != 200 {
		t.Fatalf("tracer saw %d starts / %d ends, want 200 each", len(tr.starts), len(tr.ends))
	}
	seq := make(map[uint64]bool)
	for _, ev := range tr.ends {
		if ev.Kind != "segment" || ev.Name != "stab" || ev.Ratio != 0.5 {
			t.Fatalf("traced event %+v", ev)
		}
		if seq[ev.Seq] {
			t.Fatalf("sequence %d delivered twice", ev.Seq)
		}
		seq[ev.Seq] = true
	}
	// nil disables tracing without breaking recording.
	r.SetTracer(nil)
	op := r.Begin("segment", "stab", SerialWorker)
	r.End(op, Measure{Reads: 1})
	if len(tr.ends) != 200 {
		t.Fatal("disabled tracer kept receiving events")
	}
}
