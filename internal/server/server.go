// Package server is pcserve's engine: a concurrent HTTP/JSON query
// service over any registered pathcache index kind, including the LSM
// write tier.
//
// The request lifecycle (DESIGN.md §12) is: admission (drain flag →
// per-client token bucket → max-inflight ceiling) → per-request deadline
// (a context the operation runs under) → snapshot pin (Handle.Acquire) →
// the index operation through the public pathcache API (so every op lands
// in the store's obs registry with exact op-scoped I/O) → typed JSON
// response. Every failure maps to a typed error code — a client sees a
// correct answer or a typed refusal, never a wrong answer.
//
// Readers never block on maintenance: hot reload swaps a copy-on-write
// handle (pathcache.Handle), and background compaction runs over the write
// tier's own snapshots (pathcache.WriteTier.CompactBackground).
//
// Every operation dispatches on the index's query shape (pathcache.Shape)
// or its write tier (pathcache.Writable), never on its concrete type.
// Graceful drain (SIGTERM in cmd/pcserve) refuses new work with 503 and
// lets in-flight requests finish.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathcache"
	"pathcache/internal/obs"
)

// Config tunes one Server. The zero value serves with sane defaults: no
// quotas, GOMAXPROCS batch workers, a 30s default deadline.
type Config struct {
	// QuotaRate and QuotaBurst shape each client's token bucket
	// (tokens/second and bucket depth). Rate <= 0 disables quotas.
	QuotaRate  float64
	QuotaBurst float64
	// MaxInflight caps concurrently executing requests; excess requests
	// are shed with 429/overloaded. <= 0 means no ceiling.
	MaxInflight int
	// DefaultDeadline bounds requests that name no deadline_ms;
	// MaxDeadline clamps ones that do. Zero values pick 30s and 60s.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// BatchWorkers is the worker-pool width batch endpoints fan out to
	// (also clamped by the per-request "workers" field). <= 0 means
	// GOMAXPROCS.
	BatchWorkers int
	// MaxBatch caps batch sizes; MaxBodyBytes caps request bodies. Zero
	// values pick 8192 queries and 1 MiB.
	MaxBatch     int
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8192
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Server serves one index handle over HTTP. Create with New, mount
// Handler on a listener (or use Serve), stop with Drain.
type Server struct {
	cfg    Config
	handle *pathcache.Handle

	set      *obs.ServeSet
	seq      atomic.Uint64
	draining atomic.Bool
	start    time.Time

	quotas  *quotaTable
	gate    *inflightGate
	workers *opWorkers

	// Background-compaction outcomes, surfaced in /varz: ok commits,
	// stale discards (lost the race with a concurrent flush — benign),
	// and failures.
	compactOK    atomic.Int64
	compactStale atomic.Int64
	compactFail  atomic.Int64

	httpSrv *http.Server
}

// New wraps handle in a Server. The handle stays owned by the caller:
// Drain stops serving but does not close it.
func New(handle *pathcache.Handle, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		handle: handle,
		set:    obs.NewServeSet(),
		start:  time.Now(),
		quotas: newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst),
		gate:   newInflightGate(cfg.MaxInflight),
		// One parked worker per processor covers every op that can run at
		// once; a burst beyond that runs on fresh goroutines that exit.
		workers: newOpWorkers(runtime.GOMAXPROCS(0)),
	}
	return s
}

// Handler returns the server's route table — everything under /v1, the
// admin endpoints, and the observability surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.op("query", s.opQuery))
	mux.HandleFunc("/v1/query/batch", s.op("query_batch", s.opQueryBatch))
	mux.HandleFunc("/v1/window", s.op("window", s.opWindow))
	mux.HandleFunc("/v1/window/batch", s.op("window_batch", s.opWindowBatch))
	mux.HandleFunc("/v1/stab", s.op("stab", s.opStab))
	mux.HandleFunc("/v1/stab/batch", s.op("stab_batch", s.opStabBatch))
	mux.HandleFunc("/v1/search", s.op("search", s.opSearch))
	mux.HandleFunc("/v1/insert", s.op("insert", s.opInsert))
	mux.HandleFunc("/v1/delete", s.op("delete", s.opDelete))
	mux.HandleFunc("/v1/flush", s.op("flush", s.opFlush))
	mux.HandleFunc("/v1/compact", s.op("compact", s.opCompact))
	mux.HandleFunc("/admin/reload", s.op("reload", s.opReload))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/varz", s.handleVarz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, &apiError{Status: http.StatusNotFound, Code: codeNotFound,
			Message: fmt.Sprintf("no route %s", r.URL.Path)})
	})
	return mux
}

// Serve accepts connections on ln until Drain. Conservative read/write
// timeouts bound what a stalled peer can hold: a client that trickles its
// body still burns only its own handler goroutine, and the deadline
// machinery answers 504 long before the socket timeouts fire.
func (s *Server) Serve(ln net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * s.cfg.MaxDeadline,
		WriteTimeout:      2 * s.cfg.MaxDeadline,
	}
	err := s.httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// StartDrain flips the server into draining without closing the listener:
// new requests get the typed 503, /healthz reports unhealthy (so load
// balancers rotate the instance out), and in-flight requests keep running.
// Follow with Drain to finish the shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain gracefully stops the server: new requests are refused with
// 503/draining immediately, in-flight requests run to completion, and
// Drain returns when the last one finished or ctx expired. cmd/pcserve
// calls this on SIGTERM. Parked op workers exit; an op still running (one
// whose request already timed out) finishes on its own goroutine.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	defer s.workers.stop()
	if s.httpSrv == nil {
		return nil
	}
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	return nil
}

// Draining reports whether a drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Metrics returns the serve-side metric snapshot (endpoint series and
// admission counters).
func (s *Server) Metrics() obs.ServeSnapshot { return s.set.Snapshot() }

// opFunc runs one decoded operation. It executes on an op worker under
// the request's deadline context and must not touch the ResponseWriter; it
// returns the response plus the result count for the serve metrics, or a
// typed error. body is valid only until the opFunc returns.
type opFunc func(ctx context.Context, body []byte) (response, int, *apiError)

// opResult crosses from the op worker back to the request goroutine.
type opResult struct {
	out     response
	results int
	apiErr  *apiError
}

// opCall carries one request's operation to an op worker and its result
// back. The request goroutine waits on done; a call it received a result
// from goes back to callPool, while one abandoned at its deadline is left
// to the collector, since its worker may still be writing it.
type opCall struct {
	s    *Server
	fn   opFunc
	ctx  context.Context
	r    *http.Request
	done chan struct{} // capacity 1: the worker never waits for the reader
	opResult
}

var callPool = sync.Pool{New: func() any { return &opCall{done: make(chan struct{}, 1)} }}

// run reads the body and executes the operation. It is the whole of an op
// worker's work for one request; releasing the inflight slot here, not in
// the handler, keeps an abandoned operation counted until it ends.
func (c *opCall) run() {
	defer c.s.set.Inflight.Dec()
	defer c.s.gate.release()
	bp, aerr := readBody(c.r, c.s.cfg.MaxBodyBytes)
	if aerr != nil {
		c.apiErr = aerr
	} else {
		c.out, c.results, c.apiErr = c.fn(c.ctx, *bp)
		putBuf(bp)
	}
	c.done <- struct{}{}
}

// op wraps an opFunc in the full request lifecycle: method check,
// admission, deadline, execution, typed response. The operation runs on an
// op worker so an expired deadline answers 504 immediately; the abandoned
// operation finishes against its pinned snapshot (releasing its inflight
// slot and handle reference) with nobody waiting.
func (s *Server) op(endpoint string, fn opFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		hint := s.seq.Add(1)
		observe := func(status, results int) {
			s.set.Observe(endpoint, status, results, time.Since(start), hint)
		}

		if r.Method != http.MethodPost {
			writeErr(w, &apiError{Status: http.StatusMethodNotAllowed, Code: codeMethodNotAllowed,
				Message: endpoint + " is POST-only"})
			observe(http.StatusMethodNotAllowed, 0)
			return
		}

		// Admission gates, cheapest first; denials never touch the store.
		if s.draining.Load() {
			s.set.DrainDenials.Add(hint, 1)
			writeErr(w, &apiError{Status: http.StatusServiceUnavailable, Code: codeDraining,
				Message: "server is draining", RetryAfter: 1})
			observe(http.StatusServiceUnavailable, 0)
			return
		}
		if s.quotas.enabled() {
			if ok, retry := s.quotas.take(clientKey(r), start); !ok {
				s.set.QuotaDenials.Add(hint, 1)
				writeErr(w, &apiError{Status: http.StatusTooManyRequests, Code: codeQuotaExhausted,
					Message: "client quota exhausted", RetryAfter: retry})
				observe(http.StatusTooManyRequests, 0)
				return
			}
		}
		if !s.gate.tryAcquire() {
			s.set.OverloadDenials.Add(hint, 1)
			writeErr(w, &apiError{Status: http.StatusTooManyRequests, Code: codeOverloaded,
				Message: "server at max inflight", RetryAfter: 1})
			observe(http.StatusTooManyRequests, 0)
			return
		}
		s.set.Inflight.Inc()

		ctx, cancel := s.requestContext(r)
		defer cancel()

		c := callPool.Get().(*opCall)
		c.s, c.fn, c.ctx, c.r = s, fn, ctx, r
		s.workers.run(c)

		select {
		case <-c.done:
			res := c.opResult
			*c = opCall{done: c.done}
			callPool.Put(c)
			if res.apiErr != nil {
				writeErr(w, res.apiErr)
				observe(res.apiErr.Status, 0)
				return
			}
			writeJSON(w, http.StatusOK, res.out)
			observe(http.StatusOK, res.results)
		case <-ctx.Done():
			// A slow client may have the op worker stalled reading the
			// request body, and net/http flushes a response only after that
			// read lets go — expire the connection's read deadline so the
			// stall breaks and the typed timeout actually reaches the peer.
			http.NewResponseController(w).SetReadDeadline(time.Now()) //nolint:errcheck
			// That expired deadline stays on the connection, and the next
			// request a keep-alive client sent on it would get a 504 too:
			// close the connection after this response so the client
			// redials.
			w.Header().Set("Connection", "close")
			// The operation keeps running against its pinned snapshot and
			// releases its slot when it finishes; the client hears the
			// typed timeout now.
			writeErr(w, &apiError{Status: http.StatusGatewayTimeout, Code: codeDeadlineExceeded,
				Message: "request deadline exceeded"})
			observe(http.StatusGatewayTimeout, 0)
		}
	}
}

// requestContext derives the request's deadline context: deadline_ms from
// the query string, clamped to MaxDeadline, defaulting to DefaultDeadline.
// The clamp happens in milliseconds, before the conversion to a Duration
// that a huge deadline_ms would overflow.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if r.URL.RawQuery != "" {
		if v := r.URL.Query().Get("deadline_ms"); v != "" {
			ms, err := strconv.ParseInt(v, 10, 64)
			if err == nil && ms > 0 {
				if limit := int64(s.cfg.MaxDeadline/time.Millisecond) + 1; ms > limit {
					ms = limit
				}
				d = time.Duration(ms) * time.Millisecond
			}
		}
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return context.WithTimeout(r.Context(), d)
}

// acquire pins the handle's current index for one operation.
func (s *Server) acquire() (pathcache.Index, func() error, *apiError) {
	ix, release, err := s.handle.Acquire()
	if err != nil {
		return nil, nil, &apiError{Status: http.StatusServiceUnavailable, Code: codeClosed, Message: err.Error()}
	}
	return ix, release, nil
}

// finish releases the snapshot pin, folding a close error (the releaser
// may be the last reader of a swapped-out index) into the response.
func finish(out response, results int, release func() error) (response, int, *apiError) {
	if err := release(); err != nil {
		return nil, 0, mapStoreErr(err)
	}
	return out, results, nil
}

// opQuery answers /v1/query: {a, b} on 2-sided stores, {a1, a2, b} on
// 3-sided ones.
func (s *Server) opQuery(ctx context.Context, body []byte) (response, int, *apiError) {
	var req queryReq
	if aerr := decodeReq(body, &req); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := ctxErr(ctx); aerr != nil {
		return nil, 0, aerr
	}
	ix, release, aerr := s.acquire()
	if aerr != nil {
		return nil, 0, aerr
	}
	var (
		pts  []pathcache.Point
		prof pathcache.IOProfile
		err  error
	)
	switch ix.Shape() {
	case pathcache.ShapeTwoSided:
		if aerr = req.need2Sided(); aerr == nil {
			pts, prof, err = ix.(pathcache.TwoSidedQuerier).Query(*req.A, *req.B)
		}
	case pathcache.ShapeThreeSided:
		if aerr = req.need3Sided(); aerr == nil {
			pts, prof, err = ix.(pathcache.ThreeSidedQuerier).QueryThreeSided(*req.A1, *req.A2, *req.B)
		}
	default:
		aerr = errUnsupported(ix, "query")
	}
	return finishRead(&queryResponse{Points: pts, IO: ioOf(prof)}, len(pts), aerr, err, release)
}

// finishRead completes a read operation: a refusal or store error releases
// the pin and wins, otherwise the response goes out with the release
// folded in.
func finishRead(out response, results int, aerr *apiError, err error, release func() error) (response, int, *apiError) {
	if aerr == nil && err != nil {
		aerr = mapStoreErr(err)
	}
	if aerr != nil {
		release()
		return nil, 0, aerr
	}
	return finish(out, results, release)
}

// need2Sided/need3Sided enforce the query shape the kind answers.
func (q *queryReq) need2Sided() *apiError {
	if q.A == nil || q.B == nil {
		return errBadRequest("2-sided query needs a and b")
	}
	if q.A1 != nil || q.A2 != nil {
		return errBadRequest("2-sided query takes only a and b")
	}
	return nil
}

func (q *queryReq) need3Sided() *apiError {
	if q.A1 == nil || q.A2 == nil || q.B == nil {
		return errBadRequest("3-sided query needs a1, a2 and b")
	}
	if q.A != nil {
		return errBadRequest("3-sided query takes only a1, a2 and b")
	}
	if *q.A1 > *q.A2 {
		return errBadRequest("malformed range: need a1 <= a2")
	}
	return nil
}

// opWindow answers /v1/window on window stores.
func (s *Server) opWindow(ctx context.Context, body []byte) (response, int, *apiError) {
	var req windowReq
	if aerr := decodeReq(body, &req); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := req.validate(); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := ctxErr(ctx); aerr != nil {
		return nil, 0, aerr
	}
	ix, release, aerr := s.acquire()
	if aerr != nil {
		return nil, 0, aerr
	}
	var (
		pts  []pathcache.Point
		prof pathcache.IOProfile
		err  error
	)
	if aerr = needShape(ix, pathcache.ShapeWindow, "window"); aerr == nil {
		pts, prof, err = ix.(pathcache.WindowQuerier).WindowQuery(*req.X1, *req.X2, *req.Y1, *req.Y2)
	}
	return finishRead(&queryResponse{Points: pts, IO: ioOf(prof)}, len(pts), aerr, err, release)
}

// needShape refuses an operation the index's shape does not answer.
func needShape(ix pathcache.Index, want pathcache.Shape, op string) *apiError {
	if ix.Shape() != want {
		return errUnsupported(ix, op)
	}
	return nil
}

// opStab answers /v1/stab on stabbing stores: the interval kinds, and lsm
// over an interval base.
func (s *Server) opStab(ctx context.Context, body []byte) (response, int, *apiError) {
	var req stabReq
	if aerr := decodeReq(body, &req); aerr != nil {
		return nil, 0, aerr
	}
	if req.Q == nil {
		return nil, 0, errBadRequest("stab query needs q")
	}
	if aerr := ctxErr(ctx); aerr != nil {
		return nil, 0, aerr
	}
	ix, release, aerr := s.acquire()
	if aerr != nil {
		return nil, 0, aerr
	}
	var (
		ivs  []pathcache.Interval
		prof pathcache.IOProfile
		err  error
	)
	if aerr = needShape(ix, pathcache.ShapeStab, "stab"); aerr == nil {
		ivs, prof, err = ix.(pathcache.Stabber).Stab(*req.Q)
	}
	return finishRead(&queryResponse{Intervals: ivs, IO: ioOf(prof)}, len(ivs), aerr, err, release)
}

// opSearch answers /v1/search — the exact-record membership probe the
// write tier serves through its bloom filters.
func (s *Server) opSearch(ctx context.Context, body []byte) (response, int, *apiError) {
	var req recordReq
	if aerr := decodeReq(body, &req); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := req.validate(); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := ctxErr(ctx); aerr != nil {
		return nil, 0, aerr
	}
	ix, release, aerr := s.acquire()
	if aerr != nil {
		return nil, 0, aerr
	}
	var (
		found bool
		prof  pathcache.IOProfile
		err   error
	)
	if w, ok := pathcache.Writable(ix); ok {
		found, prof, err = w.Has(req.point())
	} else {
		aerr = errUnsupported(ix, "search")
	}
	results := 0
	if found {
		results = 1
	}
	return finishRead(&searchResponse{Found: found, IO: ioOf(prof)}, results, aerr, err, release)
}

// batchWorkers resolves a request's worker ask against the server pool
// width.
func (s *Server) batchWorkers(asked int) int {
	if asked <= 0 || asked > s.cfg.BatchWorkers {
		return s.cfg.BatchWorkers
	}
	return asked
}

// opQueryBatch fans /v1/query/batch across the worker pool: every query
// takes the shape the store answers, 2-sided or 3-sided.
func (s *Server) opQueryBatch(ctx context.Context, body []byte) (response, int, *apiError) {
	var req queryBatchReq
	if aerr := decodeStrict(body, &req); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := s.checkBatch(len(req.Queries)); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := ctxErr(ctx); aerr != nil {
		return nil, 0, aerr
	}
	ix, release, aerr := s.acquire()
	if aerr != nil {
		return nil, 0, aerr
	}
	workers := s.batchWorkers(req.Workers)
	var (
		out [][]pathcache.Point
		st  pathcache.BatchStats
		err error
	)
	switch ix.Shape() {
	case pathcache.ShapeTwoSided:
		qs := make([]pathcache.TwoSidedQuery, len(req.Queries))
		for i, q := range req.Queries {
			if aerr = q.need2Sided(); aerr != nil {
				break
			}
			qs[i] = pathcache.TwoSidedQuery{A: *q.A, B: *q.B}
		}
		if aerr == nil {
			out, st, err = ix.(pathcache.TwoSidedQuerier).QueryBatch(qs, workers)
		}
	case pathcache.ShapeThreeSided:
		qs := make([]pathcache.ThreeSidedQuery, len(req.Queries))
		for i, q := range req.Queries {
			if aerr = q.need3Sided(); aerr != nil {
				break
			}
			qs[i] = pathcache.ThreeSidedQuery{A1: *q.A1, A2: *q.A2, B: *q.B}
		}
		if aerr == nil {
			out, st, err = ix.(pathcache.ThreeSidedQuerier).QueryThreeSidedBatch(qs, workers)
		}
	default:
		aerr = errUnsupported(ix, "query/batch")
	}
	resp := &batchResponse{Queries: st.Queries, Workers: st.Workers, Results: st.Results, Points: out, IO: ioOfBatch(st)}
	return finishRead(resp, st.Results, aerr, err, release)
}

// opWindowBatch fans /v1/window/batch across the worker pool.
func (s *Server) opWindowBatch(ctx context.Context, body []byte) (response, int, *apiError) {
	var req windowBatchReq
	if aerr := decodeStrict(body, &req); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := s.checkBatch(len(req.Queries)); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := ctxErr(ctx); aerr != nil {
		return nil, 0, aerr
	}
	ix, release, aerr := s.acquire()
	if aerr != nil {
		return nil, 0, aerr
	}
	qs := make([]pathcache.WindowQuery, len(req.Queries))
	for i, q := range req.Queries {
		if aerr = q.validate(); aerr != nil {
			break
		}
		qs[i] = pathcache.WindowQuery{X1: *q.X1, X2: *q.X2, Y1: *q.Y1, Y2: *q.Y2}
	}
	var (
		out [][]pathcache.Point
		st  pathcache.BatchStats
		err error
	)
	if aerr == nil {
		if aerr = needShape(ix, pathcache.ShapeWindow, "window/batch"); aerr == nil {
			out, st, err = ix.(pathcache.WindowQuerier).WindowQueryBatch(qs, s.batchWorkers(req.Workers))
		}
	}
	resp := &batchResponse{Queries: st.Queries, Workers: st.Workers, Results: st.Results, Points: out, IO: ioOfBatch(st)}
	return finishRead(resp, st.Results, aerr, err, release)
}

// opStabBatch fans /v1/stab/batch across the worker pool.
func (s *Server) opStabBatch(ctx context.Context, body []byte) (response, int, *apiError) {
	var req stabBatchReq
	if aerr := decodeStrict(body, &req); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := s.checkBatch(len(req.Qs)); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := ctxErr(ctx); aerr != nil {
		return nil, 0, aerr
	}
	ix, release, aerr := s.acquire()
	if aerr != nil {
		return nil, 0, aerr
	}
	var (
		out [][]pathcache.Interval
		st  pathcache.BatchStats
		err error
	)
	if aerr = needShape(ix, pathcache.ShapeStab, "stab/batch"); aerr == nil {
		out, st, err = ix.(pathcache.Stabber).StabBatch(req.Qs, s.batchWorkers(req.Workers))
	}
	resp := &batchResponse{Queries: st.Queries, Workers: st.Workers, Results: st.Results, Intervals: out, IO: ioOfBatch(st)}
	return finishRead(resp, st.Results, aerr, err, release)
}

func (s *Server) checkBatch(n int) *apiError {
	if n == 0 {
		return errBadRequest("batch needs at least one query")
	}
	if n > s.cfg.MaxBatch {
		return &apiError{Status: http.StatusBadRequest, Code: codeBatchTooLarge,
			Message: fmt.Sprintf("batch of %d exceeds limit %d", n, s.cfg.MaxBatch)}
	}
	return nil
}

// writable pins the index and requires a write tier: the lsm kind, or a
// sharded store whose shards are lsm. The check is synchronous, so a
// refused request never starts work.
func (s *Server) writable(op string) (pathcache.WriteTier, func() error, *apiError) {
	ix, release, aerr := s.acquire()
	if aerr != nil {
		return nil, nil, aerr
	}
	w, ok := pathcache.Writable(ix)
	if !ok {
		release()
		return nil, nil, &apiError{Status: http.StatusBadRequest, Code: codeReadOnlyKind,
			Message: fmt.Sprintf("index kind %q is static; %s needs the lsm write tier", ix.Kind(), op)}
	}
	return w, release, nil
}

// opInsert appends one record through the write tier's WAL.
func (s *Server) opInsert(ctx context.Context, body []byte) (response, int, *apiError) {
	return s.update(ctx, body, "insert", pathcache.WriteTier.Insert)
}

// opDelete tombstones one record.
func (s *Server) opDelete(ctx context.Context, body []byte) (response, int, *apiError) {
	return s.update(ctx, body, "delete", pathcache.WriteTier.Delete)
}

func (s *Server) update(ctx context.Context, body []byte, op string,
	apply func(pathcache.WriteTier, pathcache.Point) (pathcache.IOProfile, error)) (response, int, *apiError) {
	var req recordReq
	if aerr := decodeReq(body, &req); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := req.validate(); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := ctxErr(ctx); aerr != nil {
		return nil, 0, aerr
	}
	w, release, aerr := s.writable(op)
	if aerr != nil {
		return nil, 0, aerr
	}
	prof, err := apply(w, req.point())
	if err != nil {
		release()
		return nil, 0, mapStoreErr(err)
	}
	return finish(&updateResponse{Records: w.Len(), IO: ioOf(prof)}, 1, release)
}

// opFlush seals the memtable now.
func (s *Server) opFlush(ctx context.Context, body []byte) (response, int, *apiError) {
	if aerr := decodeStrict(body, &struct{}{}); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := ctxErr(ctx); aerr != nil {
		return nil, 0, aerr
	}
	w, release, aerr := s.writable("flush")
	if aerr != nil {
		return nil, 0, aerr
	}
	if err := w.Flush(); err != nil {
		release()
		return nil, 0, mapStoreErr(err)
	}
	return finish(&okResponse{OK: true}, 0, release)
}

// opCompact rebuilds the write tier's levels: synchronously by default, or
// in the background ({"background": true}) without blocking readers. A
// background attempt that loses the race with a concurrent flush discards
// its work (counted as stale in /varz) — the state that superseded it is
// already newer.
func (s *Server) opCompact(ctx context.Context, body []byte) (response, int, *apiError) {
	var req compactReq
	if aerr := decodeStrict(body, &req); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := ctxErr(ctx); aerr != nil {
		return nil, 0, aerr
	}
	w, release, aerr := s.writable("compact")
	if aerr != nil {
		return nil, 0, aerr
	}
	if !req.Background {
		if err := w.Compact(); err != nil {
			release()
			return nil, 0, mapStoreErr(err)
		}
		return finish(&okResponse{OK: true}, 0, release)
	}
	done := w.CompactBackground()
	go func() {
		err := <-done
		switch {
		case err == nil:
			s.compactOK.Add(1)
		case err == pathcache.ErrStaleCompaction:
			s.compactStale.Add(1)
		default:
			s.compactFail.Add(1)
		}
		// The snapshot pin outlives the request: the compaction reads the
		// pinned index, so it is released only here.
		release() //nolint:errcheck // surfaced via compactFail on next request
	}()
	return &okResponse{OK: true, Background: true}, 0, nil
}

// opReload hot-swaps the served index: reopen the handle's path and
// install the fresh snapshot; readers in flight finish on the old one.
// Against a sharded store, {"shard": i} reloads only shard i — the shard's
// own hot-swap handle installs the fresh file while pinned readers finish
// on the snapshot they hold.
func (s *Server) opReload(ctx context.Context, body []byte) (response, int, *apiError) {
	var req reloadReq
	if aerr := decodeStrict(body, &req); aerr != nil {
		return nil, 0, aerr
	}
	if aerr := ctxErr(ctx); aerr != nil {
		return nil, 0, aerr
	}
	if req.Shard == nil {
		if err := s.handle.Reload(); err != nil {
			return nil, 0, &apiError{Status: http.StatusInternalServerError, Code: codeReloadFailed, Message: err.Error()}
		}
		return &okResponse{OK: true}, 0, nil
	}
	ix, release, aerr := s.acquire()
	if aerr != nil {
		return nil, 0, aerr
	}
	sh, ok := ix.(*pathcache.Sharded)
	if !ok {
		release()
		return nil, 0, errBadRequest("index kind %q has no shards to reload", ix.Kind())
	}
	if *req.Shard < 0 || *req.Shard >= sh.NumShards() {
		release()
		return nil, 0, errBadRequest("no shard %d (store has %d)", *req.Shard, sh.NumShards())
	}
	if err := sh.ReloadShard(*req.Shard); err != nil {
		release()
		return nil, 0, &apiError{Status: http.StatusInternalServerError, Code: codeReloadFailed, Message: err.Error()}
	}
	return finish(&okResponse{OK: true}, 0, release)
}

// ctxErr converts an already-expired request context into the typed
// deadline error — a cheap pre-flight so expired requests skip the store.
func ctxErr(ctx context.Context) *apiError {
	if ctx.Err() != nil {
		return &apiError{Status: http.StatusGatewayTimeout, Code: codeDeadlineExceeded,
			Message: "request deadline exceeded"}
	}
	return nil
}

// handleHealthz is the liveness probe: 200 while serving, 503 once
// draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// varz is the human-oriented JSON state dump.
type varz struct {
	Kind        string            `json:"kind"`
	ContentKind string            `json:"content_kind,omitempty"` // shard content, for sharded stores
	Records     int               `json:"records"`
	Pages       int               `json:"pages"`
	Stats       pathcache.Stats   `json:"stats"`
	Generation  uint64            `json:"generation"`
	Draining    bool              `json:"draining"`
	UptimeMS    int64             `json:"uptime_ms"`
	Serve       obs.ServeSnapshot `json:"serve"`
	Compact     compactVarz       `json:"compactions"`
	ShardEpoch  uint64            `json:"shard_epoch,omitempty"`
	Shards      []shardVarz       `json:"shards,omitempty"`
}

// shardVarz is one shard's row in /varz: its file, size and key range.
type shardVarz struct {
	Shard   int    `json:"shard"`
	File    string `json:"file"`
	Records int    `json:"records"`
	Pages   int    `json:"pages"`
	Lo      int64  `json:"lo"`
	Hi      int64  `json:"hi"`
}

type compactVarz struct {
	OK    int64 `json:"ok"`
	Stale int64 `json:"stale"`
	Fail  int64 `json:"fail"`
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	ix, release, err := s.handle.Acquire()
	if err != nil {
		writeErr(w, &apiError{Status: http.StatusServiceUnavailable, Code: codeClosed, Message: err.Error()})
		return
	}
	v := varz{
		Kind:       ix.Kind(),
		Records:    ix.Len(),
		Pages:      ix.Pages(),
		Stats:      ix.Stats(),
		Generation: s.handle.Generation(),
		Draining:   s.draining.Load(),
		UptimeMS:   time.Since(s.start).Milliseconds(),
		Serve:      s.set.Snapshot(),
		Compact: compactVarz{
			OK:    s.compactOK.Load(),
			Stale: s.compactStale.Load(),
			Fail:  s.compactFail.Load(),
		},
	}
	if sh, ok := ix.(*pathcache.Sharded); ok {
		v.ContentKind = sh.ContentKind()
		v.ShardEpoch = sh.Epoch()
		for _, info := range sh.Shards() {
			v.Shards = append(v.Shards, shardVarz{
				Shard: info.Shard, File: info.File,
				Records: info.Len, Pages: info.Pages,
				Lo: info.Lo, Hi: info.Hi,
			})
		}
	}
	if err := release(); err != nil {
		writeErr(w, mapStoreErr(err))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleMetrics writes the exposition-format dump: serve-side series
// first, then every index-side (kind, op, worker) series the store's obs
// registry recorded.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ix, release, err := s.handle.Acquire()
	if err != nil {
		writeErr(w, &apiError{Status: http.StatusServiceUnavailable, Code: codeClosed, Message: err.Error()})
		return
	}
	m := ix.Metrics()
	if err := release(); err != nil {
		writeErr(w, mapStoreErr(err))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteServeMetrics(w, s.set.Snapshot())
	WriteIndexMetrics(w, m)
}

// maxPooledBody caps the request and response buffers kept for reuse. A
// rare huge body's buffer is dropped after use instead of staying pinned
// in the pool, so RSS stays bounded by typical bodies.
const maxPooledBody = 256 << 10

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns an empty pooled buffer with room for at least n bytes.
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	*bp = (*bp)[:0]
	return bp
}

// putBuf returns a buffer to the pool unless it grew past maxPooledBody.
func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bufPool.Put(bp)
	}
}

// writeJSON sends one JSON body: a result-bearing response through its
// append encoder, anything else (errors, /varz) through encoding/json.
// Either way the body is built in a pooled buffer and goes out with its
// Content-Length in a single Write, so net/http neither chunks it nor
// splits it into buffer-sized writes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	bp := getBuf(0)
	b := *bp
	if r, ok := v.(response); ok {
		b = append(r.appendJSON(b), '\n')
	} else {
		buf := bytes.NewBuffer(b)
		// Encode writes nothing on failure: an unencodable value sends an
		// empty body.
		json.NewEncoder(buf).Encode(v) //nolint:errcheck
		b = buf.Bytes()
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b) //nolint:errcheck // a failed response write has no one to tell
	*bp = b
	putBuf(bp)
}

func writeErr(w http.ResponseWriter, e *apiError) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, e.Status, e)
}
