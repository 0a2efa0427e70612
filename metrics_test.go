package pathcache

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/obs"
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

// spanLog records tracer events and page writes in one sequence, so a test
// can tell whether the build op's span encloses the construction's I/O.
type spanLog struct {
	disk.Pager
	mu     sync.Mutex
	events []string
	builds []TraceEvent
}

func (l *spanLog) log(e string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

func (l *spanLog) OpStart(op TraceOp) { l.log("start:" + op.Name) }

func (l *spanLog) OpEnd(ev TraceEvent) {
	l.log("end:" + ev.Name)
	if ev.Name == "build" {
		l.mu.Lock()
		l.builds = append(l.builds, ev)
		l.mu.Unlock()
	}
}

func (l *spanLog) Write(id disk.PageID, buf []byte) error {
	l.log("write")
	return l.Pager.Write(id, buf)
}

// TestBuildSpanCoversConstruction pins that every constructor opens its
// "build" op before its first page write and closes it after its last, so
// the event's Duration is the construction's wall time, not ~0.
func TestBuildSpanCoversConstruction(t *testing.T) {
	pts := uniformPoints(3_000, 100_000, 1511)
	ivs := uniformIntervals(3_000, 100_000, 5_000, 1513)
	builds := map[string]func(*Options) (Index, error){
		"twosided":  func(o *Options) (Index, error) { return NewTwoSidedIndex(pts, SchemeSegmented, o) },
		"twolevel":  func(o *Options) (Index, error) { return NewTwoSidedIndex(pts, SchemeTwoLevel, o) },
		"stabbing":  func(o *Options) (Index, error) { return NewStabbingIndex(ivs, SchemeSegmented, o) },
		"threeside": func(o *Options) (Index, error) { return NewThreeSidedIndex(pts, o) },
		"window":    func(o *Options) (Index, error) { return NewWindowIndex(pts, o) },
		"segment":   func(o *Options) (Index, error) { return NewSegmentIndex(ivs, true, o) },
		"interval":  func(o *Options) (Index, error) { return NewIntervalIndex(ivs, true, o) },
		"lsm":       func(o *Options) (Index, error) { return BuildDynamic("twosided", pts[:500], o) },
	}
	for name, build := range builds {
		l := &spanLog{}
		opts := &Options{PageSize: 512, Tracer: l, WrapPager: func(p disk.Pager) disk.Pager {
			l.Pager = p
			return l
		}}
		ix, err := build(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		events := append([]string(nil), l.events...)
		ix.Close()
		if len(l.builds) != 1 || l.builds[0].Duration <= 0 {
			t.Fatalf("%s: build events %+v, want one with a positive Duration", name, l.builds)
		}
		first, last := -1, -1
		for i, e := range events {
			if e == "write" {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first < 0 || events[0] != "start:build" || events[len(events)-1] != "end:build" || last != len(events)-2 {
			t.Fatalf("%s: build span does not enclose its writes: %d events, first write at %d, last at %d, first %q, final %q",
				name, len(events), first, last, events[0], events[len(events)-1])
		}
	}
}

// flushOnQuery is a tracer that flushes an LSM index from inside the first
// armed query's OpStart: after the op's spec was made, before the query
// reads the tree.
type flushOnQuery struct {
	ix    *LSMIndex
	armed atomic.Bool
	err   error
}

func (f *flushOnQuery) OpStart(op TraceOp) {
	if op.Name == "query" && f.armed.CompareAndSwap(true, false) {
		f.err = f.ix.Flush()
	}
}

func (f *flushOnQuery) OpEnd(TraceEvent) {}

// TestLSMBoundAtRunVersion commits a flush between a query's spec and its
// run. A first flush merges the seed's level into slot 1, so the injected
// flush seals the memtable's inserts into the empty slot 0 and the query
// runs on two levels where the shape before it had one. Its bound must be
// the dynamization bound at the version it ran on — two levels — not at
// the one-level shape read before the flush.
func TestLSMBoundAtRunVersion(t *testing.T) {
	const pageSize = 256
	pts := make([]Point, 2000)
	for i := range pts {
		pts[i] = Point{X: int64(i), Y: int64(2000 - i), ID: uint64(i)}
	}
	tr := &flushOnQuery{}
	ix, err := BuildDynamic("twosided", pts, &Options{PageSize: pageSize, MemtableEntries: 1000, StrictBounds: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.ix = ix
	insert := func(x0 int64) {
		t.Helper()
		for i := int64(0); i < 5; i++ {
			if _, err := ix.Insert(Point{X: x0 + i, Y: 5, ID: uint64(x0 + i)}); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
	}
	insert(3000)
	if err := ix.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	insert(4000)
	if lv := ix.Levels(); len(lv) != 1 || lv[0].Slot != 1 || ix.MemtableLen() != 5 {
		t.Fatalf("setup: levels %+v and %d memtable entries; want one level at slot 1 and 5", lv, ix.MemtableLen())
	}
	tr.armed.Store(true)
	out, prof, err := ix.Query(1990, 0)
	if tr.err != nil {
		t.Fatalf("Flush inside the query's OpStart: %v", tr.err)
	}
	if err != nil {
		t.Fatalf("query after a flush landed between its spec and its run: %v", err)
	}
	if lv := ix.Levels(); len(lv) != 2 || ix.MemtableLen() != 0 {
		t.Fatalf("the flush left levels %+v and %d memtable entries; want two levels and none", lv, ix.MemtableLen())
	}
	if len(out) != 20 {
		t.Fatalf("query returned %d records, want 20", len(out))
	}
	ran := obs.LSMBoundAt(2, ix.Len(), B(pageSize), len(out))
	before := obs.LSMBoundAt(1, ix.Len(), B(pageSize), len(out))
	if prof.Bound != ran || ran == before {
		t.Fatalf("query bound %.2f; want %.2f, the bound at the two levels it ran on (the one-level shape before the flush gives %.2f)", prof.Bound, ran, before)
	}
}
