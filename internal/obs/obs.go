// Package obs is the observability core of the storage stack: per-operation
// metric series (counters, gauges and log₂-bucketed histograms), a Tracer
// hook surface, and the runtime theorem-bound sentinels.
//
// Every index operation — a serial query, one batch worker's query, a build
// — is recorded as one Op: the engine hands the operation an op-scoped
// disk.Counter, and when the operation finishes its exact page transfers,
// cache hits, result count and duration land in the Registry owned by that
// store's engine backend. Because the per-op counts partition the
// store-level aggregate exactly (see internal/disk.WithCounter), the
// histogram totals sum to the store's Stats() diff over the same window —
// the invariant the concurrency tests pin.
//
// Bound sentinels make the paper's theorems executable: each registered
// index kind declares its I/O-bound function (for example
// PathLen(n, B) + t/B = ⌈log_B n⌉ + 1 + t/B page reads for a 2-sided
// query, Theorem 3.2), every
// operation records its measured-reads/bound ratio into a histogram, and in
// strict mode an operation whose reads exceed MaxRatio·bound + Slack fails
// with a *BoundError wrapping ErrBoundExceeded and carrying the full op
// trace. The package is stdlib-only and safe under -race.
package obs

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SerialWorker tags operations that run outside any batch worker pool.
const SerialWorker = -1

// Default sentinel constants: an operation may spend up to
// DefaultMaxRatio× its declared bound plus DefaultSlack pages before strict
// mode trips. The paper's theorems fix the shape (O(log_B n + t/B)); the
// constants absorb the implementation's additive terms (root pages, cache
// directories, the two-level region lookup).
const (
	DefaultMaxRatio = 4.0
	DefaultSlack    = 8.0
)

// ErrBoundExceeded reports an operation whose measured I/O breached its
// declared theorem bound under strict mode. It is wrapped by *BoundError,
// which carries the offending operation's trace. The text carries the
// public package's prefix because the pathcache package re-exports this
// sentinel; callers return it as-is, not re-wrapped.
var ErrBoundExceeded = errors.New("pathcache: I/O bound exceeded")

// BoundFunc is a theorem's I/O bound in page reads for one operation over
// an index of n records with page capacity b returning t results. Bound
// functions are pure and cheap; the engine's registry descriptor declares
// one per index kind.
type BoundFunc func(n, b, t int) float64

// LogBBound is PathLen(n, b) + t/b = ⌈log_b n⌉ + 1 + t/b — the paper's
// optimal query bound (Theorems 3.2–3.5): an O(log_B n) search term plus
// the output term.
func LogBBound(n, b, t int) float64 {
	return float64(PathLen(n, b)) + outputTerm(t, b)
}

// RangeTreeBound is PathLen(⌈n/b⌉, 2) + t/b = ⌈log₂⌈n/b⌉⌉ + 1 + t/b — the
// window index's range-tree query bound (this repository's 4-sided
// extension).
func RangeTreeBound(n, b, t int) float64 {
	if b < 1 {
		b = 1
	}
	leaves := (n + b - 1) / b
	return float64(PathLen(leaves, 2)) + outputTerm(t, b)
}

// LSMBound is the write tier's query bound: O(log(n/B)) occupied levels
// each paying one static search, plus the tombstone-chain scan and the
// output term — O(log(n/B)·bound_static + t/B). This form is the registry's
// static worst-case estimate; the write tier records each operation against
// LSMBoundAt with its actual level count and tombstone-chain length.
func LSMBound(n, b, t int) float64 {
	if b < 1 {
		b = 1
	}
	levels := PathLen((n+b-1)/b, 2)
	// Tombstones are capped at b·PathLen(n, b) (the write tier's compaction
	// trigger), hence PathLen(n, b)+1 chain pages.
	return LSMBoundAt(levels, PathLen(n, b)+1, n, b, t)
}

// LSMBoundAt is LSMBound evaluated at a known level count and tombstone
// chain length. The per-level search term PathLen(⌈n/b⌉, 2)+2 dominates
// every base kind's own search term (PathLen(n, b) for the path-cached
// structures, PathLen(⌈n/b⌉, 2) for the range tree), and the output term
// is paid once — the t results are partitioned across levels.
func LSMBoundAt(levels, tombPages, n, b, t int) float64 {
	if levels < 1 {
		levels = 1
	}
	if b < 1 {
		b = 1
	}
	per := float64(PathLen((n+b-1)/b, 2)) + 2
	return float64(levels)*per + float64(tombPages) + 2 + outputTerm(t, b)
}

// PathLen is ⌈log_base n⌉ + 1 for n ≥ 1, and 1 below: the nodes on a
// root-to-leaf path of a base-ary tree with n leaves. It is the search
// term of every bound here, of the experiment tables' predictions and of
// the write tier's tombstone cap. A base below 2 counts as 2.
func PathLen(n, base int) int {
	if base < 2 {
		base = 2
	}
	r := 1
	for v := 1; v < n; v *= base {
		r++
	}
	return r
}

func outputTerm(t, b int) float64 {
	if b < 1 {
		b = 1
	}
	return float64(t) / float64(b)
}

// Op identifies one in-flight operation: the index kind it ran against, the
// operation name ("query", "stab", "build"), the batch worker that executed
// it (SerialWorker outside batches), a registry-unique sequence number, and
// its start time.
type Op struct {
	Kind   string
	Name   string
	Worker int
	Seq    uint64
	Start  time.Time
}

// Event is the completed-operation record handed to Tracer.OpEnd and
// embedded in BoundError: the Op plus its exact measured I/O, output size,
// duration, declared bound and measured/bound ratio (0 when the kind
// declares no bound).
type Event struct {
	Op
	Reads     int64
	Writes    int64
	CacheHits int64
	Results   int
	Duration  time.Duration
	Bound     float64
	Ratio     float64
}

// Tracer receives operation lifecycle events. Implementations must be safe
// for concurrent use: batch workers emit events in parallel. A Tracer
// observes; it cannot veto.
type Tracer interface {
	OpStart(Op)
	OpEnd(Event)
}

// Measure is what the instrumentation layer hands End: the op-scoped
// counter's totals plus the operation's output size and declared bound.
type Measure struct {
	Reads     int64
	Writes    int64
	CacheHits int64
	Results   int
	Bound     float64
}

// seriesKey identifies one metric series: operation name plus the batch
// worker that ran it, so batch workers get tagged per-worker series while
// serial operations aggregate under SerialWorker.
type seriesKey struct {
	name   string
	worker int
}

// series is the per-(op, worker) metric bundle.
type series struct {
	kind    string
	ops     Counter
	results Counter
	reads   Histogram
	writes  Histogram
	hits    Histogram
	// ratios holds ⌈ratio·100⌉ per op, so the log₂ buckets resolve the
	// interesting range (is the ratio 0.5, 1, 2, or 10?) without floats.
	ratios       Histogram
	maxRatioBits atomic.Uint64 // math.Float64bits of the max ratio (non-negative)
}

// tracerBox wraps a Tracer for atomic.Value storage (which requires a
// single concrete stored type).
type tracerBox struct{ t Tracer }

// Registry is one store's metric surface. The engine creates one per
// backend; index operations are recorded through Begin/End, and Snapshot
// serves the public Metrics API. All methods are safe for concurrent use.
//
// Mutation is disciplined: only internal/engine and the public pathcache
// layer may drive Begin/End/Set* on a backend's registry (enforced by the
// obsdiscipline analyzer), because an op recorded outside the engine's
// op-counter seam would break the histograms-sum-to-store-diff invariant.
type Registry struct {
	seq      atomic.Uint64
	inflight Gauge

	strict       atomic.Bool
	maxRatioBits atomic.Uint64 // math.Float64bits; 0 means DefaultMaxRatio
	slackBits    atomic.Uint64 // math.Float64bits; 0 means DefaultSlack
	tracer       atomic.Value  // tracerBox
	shardPlus1   atomic.Int64  // shard id + 1; 0 means NoShard

	mu     sync.RWMutex
	series map[seriesKey]*series
}

// NoShard is the Shard value of a registry that does not belong to a
// sharded store.
const NoShard = -1

// NewRegistry returns an empty registry with default sentinel constants and
// strict mode off.
func NewRegistry() *Registry {
	return &Registry{series: make(map[seriesKey]*series)}
}

// SetTracer installs t as the registry's trace hook (nil disables tracing).
func (r *Registry) SetTracer(t Tracer) { r.tracer.Store(tracerBox{t: t}) }

func (r *Registry) loadTracer() Tracer {
	if b, ok := r.tracer.Load().(tracerBox); ok {
		return b.t
	}
	return nil
}

// SetShard tags the registry with the shard it records for inside a
// sharded store; every SeriesSnapshot then carries the id, so merged
// multi-shard metric views stay attributable. The default is NoShard.
func (r *Registry) SetShard(id int) { r.shardPlus1.Store(int64(id) + 1) }

// Shard reports the registry's shard tag (NoShard outside sharded stores).
func (r *Registry) Shard() int { return int(r.shardPlus1.Load()) - 1 }

// SetStrict arms (or disarms) the bound sentinels: with strict mode on,
// End returns a *BoundError for any operation whose measured reads exceed
// MaxRatio·bound + Slack.
func (r *Registry) SetStrict(on bool) { r.strict.Store(on) }

// Strict reports whether the sentinels are armed.
func (r *Registry) Strict() bool { return r.strict.Load() }

// SetLimits tunes the sentinel constants; non-positive values keep the
// defaults.
func (r *Registry) SetLimits(maxRatio, slack float64) {
	if maxRatio > 0 {
		r.maxRatioBits.Store(math.Float64bits(maxRatio))
	}
	if slack > 0 {
		r.slackBits.Store(math.Float64bits(slack))
	}
}

// Limits reports the effective sentinel constants.
func (r *Registry) Limits() (maxRatio, slack float64) {
	maxRatio, slack = DefaultMaxRatio, DefaultSlack
	if b := r.maxRatioBits.Load(); b != 0 {
		maxRatio = math.Float64frombits(b)
	}
	if b := r.slackBits.Load(); b != 0 {
		slack = math.Float64frombits(b)
	}
	return maxRatio, slack
}

// Inflight reports the number of operations between Begin and End.
func (r *Registry) Inflight() int64 { return r.inflight.Load() }

// Begin opens one operation: it assigns the op's sequence number, bumps the
// inflight gauge and emits the tracer's OpStart event.
func (r *Registry) Begin(kind, name string, worker int) Op {
	op := Op{
		Kind:   kind,
		Name:   name,
		Worker: worker,
		Seq:    r.seq.Add(1),
		Start:  time.Now(),
	}
	r.inflight.Inc()
	if t := r.loadTracer(); t != nil {
		t.OpStart(op)
	}
	return op
}

// End closes an operation: the measured I/O lands in the op's series, the
// tracer's OpEnd fires, and with strict mode armed a bound breach returns a
// *BoundError carrying the event. The Event is returned either way so the
// instrumentation layer can surface exact per-op numbers (profiles).
func (r *Registry) End(op Op, m Measure) (Event, error) {
	ev := Event{
		Op:        op,
		Reads:     m.Reads,
		Writes:    m.Writes,
		CacheHits: m.CacheHits,
		Results:   m.Results,
		Duration:  time.Since(op.Start),
		Bound:     m.Bound,
	}
	if m.Bound > 0 {
		ev.Ratio = float64(m.Reads) / m.Bound
	}

	s := r.seriesFor(op.Kind, seriesKey{name: op.Name, worker: op.Worker})
	s.ops.Add(op.Seq, 1)
	s.results.Add(op.Seq, int64(m.Results))
	s.reads.Observe(m.Reads)
	s.writes.Observe(m.Writes)
	s.hits.Observe(m.CacheHits)
	if m.Bound > 0 {
		s.ratios.Observe(int64(math.Ceil(ev.Ratio * 100)))
		for {
			cur := s.maxRatioBits.Load()
			if ev.Ratio <= math.Float64frombits(cur) ||
				s.maxRatioBits.CompareAndSwap(cur, math.Float64bits(ev.Ratio)) {
				break
			}
		}
	}

	r.inflight.Dec()
	if t := r.loadTracer(); t != nil {
		t.OpEnd(ev)
	}

	if r.Strict() && m.Bound > 0 {
		maxRatio, slack := r.Limits()
		if float64(m.Reads) > maxRatio*m.Bound+slack {
			return ev, &BoundError{Event: ev, MaxRatio: maxRatio, Slack: slack}
		}
	}
	return ev, nil
}

// seriesFor returns (creating on first use) the series for key.
func (r *Registry) seriesFor(kind string, key seriesKey) *series {
	r.mu.RLock()
	s := r.series[key]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.series[key]; s == nil {
		s = &series{kind: kind}
		r.series[key] = s
	}
	return s
}

// Reset drops every series and zeroes the sequence counter. Inflight
// operations keep their Op tokens; their End lands in fresh series.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series = make(map[seriesKey]*series)
	r.seq.Store(0)
}

// SeriesSnapshot is the point-in-time state of one (op, worker) series.
type SeriesSnapshot struct {
	Kind    string
	Name    string
	Worker  int // SerialWorker for non-batch operations
	Shard   int // the owning registry's shard tag; NoShard outside sharded stores
	Ops     int64
	Results int64
	Reads   HistSnapshot
	Writes  HistSnapshot
	Hits    HistSnapshot
	// Ratios buckets ⌈measured/bound·100⌉ per op; empty when the kind
	// declares no bound.
	Ratios   HistSnapshot
	MaxRatio float64
}

// Snapshot copies the registry's current state, series sorted by
// (name, worker) for deterministic rendering.
type Snapshot struct {
	Inflight int64
	Series   []SeriesSnapshot
}

// Snapshot returns a copy of every series plus the inflight gauge.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	keys := make([]seriesKey, 0, len(r.series))
	for k := range r.series {
		keys = append(keys, k)
	}
	r.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].worker < keys[j].worker
	})
	out := Snapshot{Inflight: r.Inflight()}
	shardID := r.Shard()
	for _, k := range keys {
		r.mu.RLock()
		s := r.series[k]
		r.mu.RUnlock()
		if s == nil {
			continue
		}
		out.Series = append(out.Series, SeriesSnapshot{
			Kind:     s.kind,
			Name:     k.name,
			Worker:   k.worker,
			Shard:    shardID,
			Ops:      s.ops.Total(),
			Results:  s.results.Total(),
			Reads:    s.reads.Snapshot(),
			Writes:   s.writes.Snapshot(),
			Hits:     s.hits.Snapshot(),
			Ratios:   s.ratios.Snapshot(),
			MaxRatio: math.Float64frombits(s.maxRatioBits.Load()),
		})
	}
	return out
}

// BoundError reports a strict-mode bound breach: the full trace of the
// offending operation plus the sentinel constants in force. It wraps
// ErrBoundExceeded for errors.Is.
type BoundError struct {
	Event    Event
	MaxRatio float64
	Slack    float64
}

func (e *BoundError) Error() string {
	return fmt.Sprintf(
		"%v: %s/%s op %d (worker %d): %d reads > %.2g×bound+%.2g with bound %.2f pages (ratio %.2f, %d results, %d writes, %d cache hits)",
		ErrBoundExceeded, e.Event.Kind, e.Event.Name, e.Event.Seq, e.Event.Worker,
		e.Event.Reads, e.MaxRatio, e.Slack, e.Event.Bound, e.Event.Ratio,
		e.Event.Results, e.Event.Writes, e.Event.CacheHits)
}

// Unwrap makes errors.Is(err, ErrBoundExceeded) hold.
func (e *BoundError) Unwrap() error { return ErrBoundExceeded }
