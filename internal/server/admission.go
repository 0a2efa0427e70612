package server

import (
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// Request admission: before any store work, a request passes three gates —
// the drain flag, its client's token bucket, and the server-wide
// max-inflight ceiling. Every denial is a typed 4xx/5xx with Retry-After
// where retrying makes sense, and every denial is counted in the serve
// metrics, so saturation is observable rather than silent.

// clientKey identifies the quota principal of a request: the X-Client
// header when the caller names itself, otherwise the remote IP (so one
// misbehaving host cannot starve the rest by default).
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// tokenBucket is one client's quota state: a continuously refilling bucket
// of rate tokens/second up to burst. Lazy refill on take keeps the state
// two floats and a timestamp.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// quotaTable maps client keys to token buckets. rate <= 0 disables
// quotas entirely (every take succeeds).
//
// The table stays bounded however many client keys arrive: a bucket that
// has refilled to burst is indistinguishable from a fresh one, so sweeps
// drop those. A sweep runs when the table reaches twice its size after the
// previous sweep (at least minSweep), which keeps the cost per take
// constant and the table within twice the clients that spent a token
// within the last burst/rate seconds.
type quotaTable struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	sweepAt int
}

// minSweep is the table size below which no sweep runs.
const minSweep = 1024

func newQuotaTable(rate, burst float64) *quotaTable {
	if burst < 1 {
		burst = 1
	}
	return &quotaTable{rate: rate, burst: burst, buckets: make(map[string]*tokenBucket), sweepAt: minSweep}
}

// enabled reports whether quotas are on; when they are off the server
// does not even derive the client key.
func (q *quotaTable) enabled() bool { return q != nil && q.rate > 0 }

// refilled reports whether b holds burst tokens again at now: the same
// refill arithmetic take applies.
func (q *quotaTable) refilled(b *tokenBucket, now time.Time) bool {
	dt := now.Sub(b.last).Seconds()
	return dt > 0 && math.Min(q.burst, b.tokens+dt*q.rate) == q.burst
}

// sweep drops every refilled bucket. Caller holds q.mu.
func (q *quotaTable) sweep(now time.Time) {
	for k, b := range q.buckets {
		if q.refilled(b, now) {
			delete(q.buckets, k)
		}
	}
	q.sweepAt = max(2*len(q.buckets), minSweep)
}

// take spends one token from client's bucket. On an empty bucket it
// reports the wait until the next token accrues, rounded up to whole
// seconds for the Retry-After header (minimum 1).
func (q *quotaTable) take(client string, now time.Time) (ok bool, retryAfter int) {
	if q == nil || q.rate <= 0 {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buckets) >= q.sweepAt {
		q.sweep(now)
	}
	b := q.buckets[client]
	if b == nil {
		b = &tokenBucket{tokens: q.burst, last: now}
		q.buckets[client] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(q.burst, b.tokens+dt*q.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := (1 - b.tokens) / q.rate
	retryAfter = int(math.Ceil(wait))
	if retryAfter < 1 {
		retryAfter = 1
	}
	return false, retryAfter
}

// inflightGate is the server-wide concurrency ceiling: a semaphore sized
// at Config.MaxInflight. A nil gate (no configured ceiling) admits
// everything.
type inflightGate struct {
	sem chan struct{}
}

func newInflightGate(max int) *inflightGate {
	if max <= 0 {
		return nil
	}
	return &inflightGate{sem: make(chan struct{}, max)}
}

// tryAcquire takes a slot without blocking — an overloaded server sheds
// load with 429 rather than queueing unboundedly.
func (g *inflightGate) tryAcquire() bool {
	if g == nil {
		return true
	}
	select {
	case g.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g *inflightGate) release() {
	if g == nil {
		return
	}
	<-g.sem
}
