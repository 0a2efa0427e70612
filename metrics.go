package pathcache

import (
	"errors"
	"fmt"
	"time"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
	"pathcache/internal/obs"
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

// opRun is one recorded serial operation: the registry record it closes
// and the op-scoped counter its I/O is routed through. It is one allocation
// per op, counter included.
type opRun struct {
	c   core
	op  obs.Op
	ctr disk.Counter
}

// startOp opens one recorded serial operation against the backend. Route
// the operation's I/O through pager(), then call finish (or abort) exactly
// once.
func (c core) startOp(kindName, opName string) *opRun {
	return &opRun{c: c, op: c.be.Obs().Begin(kindName, opName, obs.SerialWorker)}
}

// pager returns the backend's pager viewed through the op's counter.
func (r *opRun) pager() disk.Pager { return r.c.be.OpPager(&r.ctr) }

// finish folds the counter into the metric series, given the op's result
// count, the index size n and the bound function (nil for none), and
// returns the op's I/O profile — and, with strict bounds armed, a
// *BoundError on breach.
func (r *opRun) finish(results, n int, bound obs.BoundFunc) (IOProfile, error) {
	cs := r.ctr.Stats()
	ev, err := r.c.be.Obs().End(r.op, obs.Measure{
		Reads:     cs.Reads,
		Writes:    cs.Writes,
		CacheHits: r.ctr.Hits(),
		Results:   results,
		Bound:     evalBound(bound, r.c.be.Pager().PageSize(), n, results),
	})
	prof := IOProfile{
		Results:    results,
		Reads:      ev.Reads,
		Writes:     ev.Writes,
		CacheHits:  ev.CacheHits,
		Bound:      ev.Bound,
		BoundRatio: ev.Ratio,
	}
	return prof, publicErr(err)
}

// abort closes an operation whose underlying query failed: the partial I/O
// still lands in the series (and the inflight gauge drops), but no bound is
// checked — the query's own error wins.
func (r *opRun) abort() { r.finish(0, 0, nil) }

// recordBuild attributes an index construction to the metric series as one
// "build" op. A constructor starts from a fresh store, so the absolute
// store counters are exactly the build's I/O. Builds declare no bound —
// the paper bounds construction space, not construction I/O.
func (c core) recordBuild(kindName string, n int) {
	op := c.be.Obs().Begin(kindName, "build", obs.SerialWorker)
	st := c.be.Stats()
	c.be.Obs().End(op, obs.Measure{
		Reads:   st.Reads,
		Writes:  st.Writes,
		Results: n,
	})
}
