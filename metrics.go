package pathcache

import (
	"errors"
	"fmt"
	"time"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
	"pathcache/internal/obs"
	"pathcache/internal/skeletal"
)

// This file is the public face of the observability layer (internal/obs):
// the Metrics snapshot every index exposes, the Tracer hook Options carry,
// and the bound-sentinel error surface. Each index operation — a serial
// query or stab, one batch worker's query, a build — is recorded against
// the engine backend's registry with its exact op-scoped I/O counts, and
// each query-class operation is checked against its kind's theorem bound.

// SerialWorker is the Worker value of operations recorded outside any
// batch: serial queries, stabs and builds.
const SerialWorker = obs.SerialWorker

// NoShard is the OpMetrics.Shard value of series recorded outside any
// sharded store; inside one, Shard is the 0-based shard number.
const NoShard = obs.NoShard

// ErrBoundExceeded reports an operation whose measured I/O breached its
// kind's declared theorem bound with strict bounds armed
// (Options.StrictBounds). Errors wrapping it are *BoundError values
// carrying the offending operation's full trace; test with
// errors.Is(err, ErrBoundExceeded) and unpack with errors.As.
var ErrBoundExceeded = obs.ErrBoundExceeded

// TraceOp identifies one in-flight index operation.
type TraceOp struct {
	// Kind is the index's registry name ("twosided", "segment", ...).
	Kind string
	// Name is the operation ("query", "stab", "search", "build").
	Name string
	// Worker is the batch worker that ran the op, or SerialWorker.
	Worker int
	// Seq is the operation's store-unique sequence number.
	Seq uint64
	// Start is when the operation began.
	Start time.Time
}

// TraceEvent is the completed-operation record: the op plus its exact
// measured I/O, output size, duration, and declared theorem bound.
type TraceEvent struct {
	TraceOp
	Reads     int64 // store pages read by this op
	Writes    int64 // store pages written by this op
	CacheHits int64 // buffer-pool hits (free accesses) by this op
	Results   int
	Duration  time.Duration
	// Bound is the kind's theorem I/O bound in page reads for this op's
	// (n, B, t); zero when the op declares none (builds). Ratio is
	// Reads/Bound.
	Bound float64
	Ratio float64
}

// Tracer observes operation lifecycles. Install one with
// Options.WithTracer; implementations must be safe for concurrent use
// because batch workers emit events in parallel.
type Tracer interface {
	OpStart(TraceOp)
	OpEnd(TraceEvent)
}

// tracerAdapter converts the internal registry's events to the public
// trace types.
type tracerAdapter struct{ t Tracer }

func (a tracerAdapter) OpStart(op obs.Op)  { a.t.OpStart(toTraceOp(op)) }
func (a tracerAdapter) OpEnd(ev obs.Event) { a.t.OpEnd(toTraceEvent(ev)) }

func toTraceOp(op obs.Op) TraceOp {
	return TraceOp{Kind: op.Kind, Name: op.Name, Worker: op.Worker, Seq: op.Seq, Start: op.Start}
}

func toTraceEvent(ev obs.Event) TraceEvent {
	return TraceEvent{
		TraceOp:   toTraceOp(ev.Op),
		Reads:     ev.Reads,
		Writes:    ev.Writes,
		CacheHits: ev.CacheHits,
		Results:   ev.Results,
		Duration:  ev.Duration,
		Bound:     ev.Bound,
		Ratio:     ev.Ratio,
	}
}

// BoundError is the strict-mode sentinel failure: the full trace of the
// operation whose measured reads exceeded MaxRatio·bound + Slack. It wraps
// ErrBoundExceeded.
type BoundError struct {
	Event    TraceEvent
	MaxRatio float64
	Slack    float64
}

func (e *BoundError) Error() string {
	return fmt.Sprintf(
		"%v: %s/%s op %d (worker %d): %d reads > %.2g×bound+%.2g with bound %.2f pages (ratio %.2f, %d results)",
		ErrBoundExceeded, e.Event.Kind, e.Event.Name, e.Event.Seq, e.Event.Worker,
		e.Event.Reads, e.MaxRatio, e.Slack, e.Event.Bound, e.Event.Ratio, e.Event.Results)
}

// Unwrap makes errors.Is(err, ErrBoundExceeded) hold.
func (e *BoundError) Unwrap() error { return ErrBoundExceeded }

// publicErr converts internal bound errors to the public *BoundError and
// leaves every other error untouched (callers wrap those with the package
// prefix as usual). A nil error returns before errors.As, whose target
// would otherwise escape to the heap on every successful op.
func publicErr(err error) error {
	if err == nil {
		return nil
	}
	var be *obs.BoundError
	if errors.As(err, &be) {
		return &BoundError{Event: toTraceEvent(be.Event), MaxRatio: be.MaxRatio, Slack: be.Slack}
	}
	return err
}

// HistogramBucket is one non-empty log₂ bucket covering the inclusive
// sample range [Lo, Hi] (Hi = MaxInt64 on the overflow bucket).
type HistogramBucket struct {
	Lo, Hi int64
	Count  int64
}

// Histogram summarizes a distribution of per-op samples.
type Histogram struct {
	Count, Sum, Min, Max int64
	Buckets              []HistogramBucket
}

func toHistogram(s obs.HistSnapshot) Histogram {
	h := Histogram{Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max}
	for _, b := range s.Buckets {
		h.Buckets = append(h.Buckets, HistogramBucket{Lo: b.Lo, Hi: b.Hi, Count: b.Count})
	}
	return h
}

// OpMetrics is one (operation, worker) metric series: per-op read, write
// and cache-hit distributions plus the bound-ratio distribution.
type OpMetrics struct {
	// Kind is the index's registry name; Name the operation; Worker the
	// batch worker (SerialWorker for serial ops and builds). Shard is the
	// shard that recorded the series inside a sharded store, NoShard
	// everywhere else.
	Kind   string
	Name   string
	Worker int
	Shard  int
	// Ops counts completed operations; Results their summed output sizes.
	Ops     int64
	Results int64
	// Reads, Writes and CacheHits distribute the op-scoped counts; their
	// Sum fields add exactly to the store-level Stats diff over the same
	// window (hits excluded — hits are the I/O the pool absorbed).
	Reads     Histogram
	Writes    Histogram
	CacheHits Histogram
	// BoundRatios distributes ⌈100·reads/bound⌉ per op (so bucket [64,127]
	// means the op ran at 0.64–1.27× its theorem bound); empty for ops with
	// no declared bound. MaxBoundRatio is the worst ratio observed.
	BoundRatios   Histogram
	MaxBoundRatio float64
}

// Metrics is a point-in-time snapshot of every metric series an index's
// store has recorded, sorted by (Name, Worker).
type Metrics struct {
	// Inflight counts operations currently between start and end.
	Inflight int64
	Ops      []OpMetrics
}

// Metrics snapshots the index's per-operation metric series. The snapshot
// is a copy; concurrent operations keep recording unaffected.
func (c core) Metrics() Metrics {
	snap := c.be.Obs().Snapshot()
	out := Metrics{Inflight: snap.Inflight}
	for _, s := range snap.Series {
		out.Ops = append(out.Ops, OpMetrics{
			Kind:          s.Kind,
			Name:          s.Name,
			Worker:        s.Worker,
			Shard:         s.Shard,
			Ops:           s.Ops,
			Results:       s.Results,
			Reads:         toHistogram(s.Reads),
			Writes:        toHistogram(s.Writes),
			CacheHits:     toHistogram(s.Hits),
			BoundRatios:   toHistogram(s.Ratios),
			MaxBoundRatio: s.MaxRatio,
		})
	}
	return out
}

// ResetMetrics drops every recorded metric series (the store-level Stats
// counters are separate; see ResetStats).
func (c core) ResetMetrics() { c.be.Obs().Reset() }

// boundFor returns the theorem bound function registered for kind, nil
// when the kind has no registry entry.
func boundFor(kind byte) obs.BoundFunc {
	if d, ok := engine.Lookup(kind); ok {
		return d.Bound
	}
	return nil
}

// evalBound evaluates bound for an index of n records returning t results
// through a pager with the given usable page size; 0 means "no bound"
// (builds, unregistered kinds).
func evalBound(bound obs.BoundFunc, pageSize, n, t int) float64 {
	if bound == nil {
		return 0
	}
	return bound(n, B(pageSize), t)
}

// opSpec names one recorded operation: the kind and operation its metric
// series is keyed by, and the theorem bound it is checked against at index
// size n (a nil bound declares none: updates and maintenance). An op whose
// QueryStats carries its own Bound is checked against that instead.
type opSpec struct {
	kind, name string
	n          int
	bound      obs.BoundFunc
}

// queryOp is the spec of a query-class operation on a registered kind,
// checked against the kind's registered bound.
func queryOp(kind byte, name string, n int) opSpec {
	return opSpec{kind: engine.KindName(kind), name: name, n: n, bound: boundFor(kind)}
}

// recorder is the one op recorder. Every index operation but a build — a
// serial query, one batch worker's query, an LSM update or maintenance
// pass — opens with begin, routes its I/O through the recorder's pager and
// closes with end, which records the op-scoped counter's delta since begin
// into the metric series and checks the bound. A serial operation takes a
// fresh recorder; a batch worker keeps one for all its queries, so its
// counter also totals the worker's share.
type recorder struct {
	be     *engine.Backend
	spec   opSpec
	worker int
	ctr    disk.Counter
	pager  disk.Pager // be's pager viewed through ctr

	op         obs.Op
	before     disk.Stats
	beforeHits int64
}

// newRecorder makes a recorder for spec's operations run by worker
// (SerialWorker outside a batch). It is one allocation, counter included.
func (c core) newRecorder(spec opSpec, worker int) *recorder {
	r := &recorder{be: c.be, spec: spec, worker: worker}
	r.pager = c.be.OpPager(&r.ctr)
	return r
}

// begin opens one operation.
func (r *recorder) begin() {
	r.op = r.be.Obs().Begin(r.spec.kind, r.spec.name, r.worker)
	r.before, r.beforeHits = r.ctr.Stats(), r.ctr.Hits()
}

// end closes the operation begun last, given its result count, its
// path-cache accounting and its own error. A failed operation still lands
// its partial I/O in the series (and drops the inflight gauge) but records
// no results and checks no bound — the operation's error wins — and gets a
// zero profile. Otherwise end returns the operation's I/O profile and, with
// strict bounds armed, a *BoundError on breach. The bound is st.Bound when
// the query reported one, else the spec's bound at the spec's n.
func (r *recorder) end(results int, st skeletal.QueryStats, opErr error) (IOProfile, error) {
	after := r.ctr.Stats()
	m := obs.Measure{
		Reads:     after.Reads - r.before.Reads,
		Writes:    after.Writes - r.before.Writes,
		CacheHits: r.ctr.Hits() - r.beforeHits,
	}
	if opErr != nil {
		r.be.Obs().End(r.op, m)
		return IOProfile{}, nil
	}
	m.Results = results
	m.Bound = st.Bound
	if m.Bound == 0 {
		m.Bound = evalBound(r.spec.bound, r.be.Pager().PageSize(), r.spec.n, results)
	}
	ev, err := r.be.Obs().End(r.op, m)
	return IOProfile{
		PathPages:   st.PathPages,
		ListPages:   st.ListPages,
		UsefulIOs:   st.UsefulIOs,
		WastefulIOs: st.WastefulIOs,
		Results:     results,
		Reads:       ev.Reads,
		Writes:      ev.Writes,
		CacheHits:   ev.CacheHits,
		Bound:       ev.Bound,
		BoundRatio:  ev.Ratio,
	}, publicErr(err)
}

// queryFunc is a static kind's one per-query function: answer q by reading
// every page through p, append the answer to dst — growing it once by the
// answer's length — and report its path-cache accounting. Serial and batch
// methods both run it through a recorder with a nil dst, so their answer
// is one exact allocation; a sharded gather passes its pooled buffer.
type queryFunc[Q, R any] func(p disk.Pager, dst []R, q Q) ([]R, skeletal.QueryStats, error)

// serial answers q as one recorded serial operation, appending the answer
// to dst. A failed query returns dst, its error and a zero profile; a
// bound breach returns dst, the profile and the *BoundError, with no
// answer appended.
func serial[Q, R any](c core, spec opSpec, dst []R, q Q, run queryFunc[Q, R]) ([]R, IOProfile, error) {
	r := c.newRecorder(spec, obs.SerialWorker)
	r.begin()
	out, st, err := run(r.pager, dst, q)
	prof, berr := r.end(len(out)-len(dst), st, err)
	if err != nil {
		return dst, IOProfile{}, fmt.Errorf("pathcache: %w", err)
	}
	if berr != nil {
		return dst, prof, berr
	}
	return out, prof, nil
}

// recordBuild runs an index construction as one recorded "build" op. The
// op opens before build runs and closes after it returns, meta save
// included, so the event's Duration and a Tracer's span cover the whole
// construction. build returns the index size. A constructor starts from a
// fresh store, so the absolute store counters are exactly the build's I/O.
// A failed build still closes its op, with no results, so every OpStart
// has its OpEnd. Builds declare no bound — the paper bounds construction
// space, not construction I/O.
func (c core) recordBuild(kindName string, build func() (int, error)) error {
	op := c.be.Obs().Begin(kindName, "build", obs.SerialWorker)
	n, err := build()
	if err != nil {
		n = 0
	}
	st := c.be.Stats()
	c.be.Obs().End(op, obs.Measure{
		Reads:   st.Reads,
		Writes:  st.Writes,
		Results: n,
	})
	return err
}
