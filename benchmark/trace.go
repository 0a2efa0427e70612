package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pathcache"
	"pathcache/internal/disk"
	"pathcache/internal/server"
)

// The traced run times each layer from outside the program, at the public
// seams: a middleware around server.Handler, the Options.Tracer op events,
// an Options.WrapPager wrapper around the page I/O, and direct QueryProfile
// calls. Three passes replay round 1's requests from one serial client:
//
//  1. the store rebuilt with the hooks, served in-process — spans
//     client.request ⊃ server.handler ⊃ pathcache.op ⊃ disk.read/disk.write;
//  2. QueryProfile called directly on the same store — shard.query spans
//     and the IOProfile fields the wire format does not carry;
//  3. a hook-free build opened with pathcache.Open and served the same way,
//     whose latency against pass 1's is the tracing overhead.
//
// With one request in flight, every span recorded while it runs belongs to
// it; spans stay in memory and are written to trace-<workload>.json.

// traceRequests caps the replay of the static workloads; lsm-mixed replays
// its whole round-1 update list so several flushes and compactions land in
// the trace.
const traceRequests = 2000

// span is one timed interval of one request.
type span struct {
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Op     string  `json:"op,omitempty"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Reads  int64   `json:"reads,omitempty"`
	Writes int64   `json:"writes,omitempty"`
	Hits   int64   `json:"hits,omitempty"`
	Ratio  float64 `json:"ratio,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) us() float64        { return float64(s.End-s.Start) / 1e3 }

// recorder collects spans. req is the id of the request in flight; hooks
// firing while it is 0 (builds, checks) record nothing.
type recorder struct {
	epoch time.Time
	req   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// OpStart implements pathcache.Tracer; spans are recorded whole at OpEnd.
func (r *recorder) OpStart(pathcache.TraceOp) {}

// OpEnd implements pathcache.Tracer.
func (r *recorder) OpEnd(ev pathcache.TraceEvent) {
	req := r.req.Load()
	if req == 0 {
		return
	}
	start := r.ns(ev.Start)
	r.add(span{Req: req, Name: "pathcache.op", Op: ev.Name, Start: start, End: start + ev.Duration.Nanoseconds(),
		Reads: ev.Reads, Writes: ev.Writes, Hits: ev.CacheHits, Ratio: ev.Ratio})
}

// timedPager is the WrapPager hook: it times every page read and write.
type timedPager struct {
	disk.Pager
	rec *recorder
}

func (p *timedPager) timed(name string, id disk.PageID, buf []byte, io func(disk.PageID, []byte) error) error {
	req := p.rec.req.Load()
	if req == 0 {
		return io(id, buf)
	}
	t0 := time.Now()
	err := io(id, buf)
	p.rec.add(span{Req: req, Name: name, Start: p.rec.ns(t0), End: p.rec.ns(time.Now())})
	return err
}

func (p *timedPager) Read(id disk.PageID, buf []byte) error {
	return p.timed("disk.read", id, buf, p.Pager.Read)
}

func (p *timedPager) Write(id disk.PageID, buf []byte) error {
	return p.timed("disk.write", id, buf, p.Pager.Write)
}

// WithCounter keeps per-op accounting exact under the wrapper: a buffer
// pool underneath still attributes its own hits (disk.WithCounter).
func (p *timedPager) WithCounter(c *disk.Counter) disk.Pager {
	return &timedPager{Pager: disk.WithCounter(p.Pager, c), rec: p.rec}
}

// countingWriter counts response body bytes for server.response_bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// middleware records each request's server.handler span.
func (r *recorder) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := r.req.Load()
		t0 := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req)
		if id != 0 {
			r.add(span{Req: id, Name: "server.handler", Start: r.ns(t0), End: r.ns(time.Now()), Bytes: cw.n})
		}
	})
}

// inproc serves an index from this process, as pcserve would.
type inproc struct {
	hs     *http.Server
	addr   string
	done   chan error
	handle *pathcache.Handle
	closed bool
}

func serveInProcess(ix pathcache.Index, path string, wrap func(http.Handler) http.Handler) (*inproc, error) {
	h := pathcache.NewHandle(path, ix)
	var handler http.Handler = server.New(h, server.Config{}).Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	p := &inproc{hs: &http.Server{Handler: handler}, addr: ln.Addr().String(), done: make(chan error, 1), handle: h}
	go func() { p.done <- p.hs.Serve(ln) }()
	return p, nil
}

// close stops serving and closes the index; later calls do nothing.
func (p *inproc) close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	<-p.done
	if cerr := p.handle.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayList is round 1's requests, both clients' lists interleaved.
func (pl *plan) replayList() []request {
	l0, l1 := pl.rounds[0][0], pl.rounds[0][1]
	var out []request
	for i := 0; i < max(len(l0), len(l1)); i++ {
		if i < len(l0) {
			out = append(out, l0[i])
		}
		if i < len(l1) {
			out = append(out, l1[i])
		}
	}
	if !pl.spec.lsm && len(out) > traceRequests {
		out = out[:traceRequests]
	}
	return out
}

// endpoint is one in-process server the replay drives, with its own
// client, oracle state and results.
type endpoint struct {
	c  *client
	ch *checker
	t  tally
}

func newEndpoint(addr string, pl *plan) *endpoint {
	return &endpoint{c: newClient(addr), ch: newChecker(pl)}
}

// latencies returns every request's latency, queries and updates.
func (e *endpoint) latencies() []float64 {
	return append(append([]float64(nil), e.t.queryUS...), e.t.updateUS...)
}

// replay sends list serially, each request first to the traced server —
// under its own id, with a client.request span — then to the untraced one.
// Alternating request by request keeps drift and GC phases out of the
// overhead comparison. Every answer from both is checked; on lsm-mixed
// replay returns the writer records left live.
func replay(pl *plan, list []request, rec *recorder, traced, plain *endpoint, t *tally) map[pathcache.Point]bool {
	for i, rq := range list {
		id := int64(i + 1)
		rec.req.Store(id)
		t0 := time.Now()
		traced.c.do(rq, traced.ch, &traced.t, true)
		rec.add(span{Req: id, Name: "client.request", Op: opName(rq.op), Start: rec.ns(t0), End: rec.ns(time.Now())})
		rec.req.Store(0)
		plain.c.do(rq, plain.ch, &plain.t, true)
	}
	for _, e := range []*endpoint{traced, plain} {
		if pl.spec.lsm {
			finalCheck(e.c, pl, e.ch, &e.t)
			if err := e.ch.stamps.checkAll(e.t.obs); err != nil {
				e.t.fail("wrong answer: %v", err)
			}
			e.t.obs = nil
		}
		e.c.close()
		t.attempted += e.t.attempted
		t.failed += e.t.failed
		t.errs = append(t.errs, e.t.errs...)
	}
	if !pl.spec.lsm {
		return nil
	}
	return traced.ch.stamps.live()
}

func opName(op int) string {
	switch op {
	case opInsert:
		return "insert"
	case opDelete:
		return "delete"
	}
	return "query"
}

// directProfile is one pass-2 query: its shard.query call span and the
// profiles of the stores that answered it.
type directProfile struct {
	call  span
	profs []pathcache.IOProfile
}

// queryDirect answers a 2-sided query through the library, bypassing HTTP.
func queryDirect(ix pathcache.Index, a, b int64) ([]pathcache.Point, []pathcache.IOProfile, error) {
	switch v := ix.(type) {
	case *pathcache.Sharded:
		pts, sps, err := v.QueryProfile(a, b)
		profs := make([]pathcache.IOProfile, len(sps))
		for i, sp := range sps {
			profs[i] = sp.IOProfile
		}
		return pts, profs, err
	case *pathcache.TwoSidedIndex:
		pts, prof, err := v.QueryProfile(a, b)
		return pts, []pathcache.IOProfile{prof}, err
	case *pathcache.LSMIndex:
		pts, prof, err := v.Query(a, b)
		return pts, []pathcache.IOProfile{prof}, err
	}
	return nil, nil, fmt.Errorf("unexpected index kind %s", ix.Kind())
}

// runTrace runs the three passes and returns the per-layer metrics.
func runTrace(pl *plan, dir, outDir string, t *tally, stdout io.Writer) ([]metric, error) {
	s := pl.spec
	list := pl.replayList()
	rec := &recorder{epoch: time.Now()}
	opts := &pathcache.Options{
		Tracer:    rec,
		WrapPager: func(p disk.Pager) disk.Pager { return &timedPager{Pager: p, rec: rec} },
	}

	// Passes 1 and 3: the traced and a hook-free build of the same
	// records, both served in-process, the replay alternating between them.
	tracedPath := storePath(s, filepath.Join(dir, "traced"))
	plainPath := storePath(s, filepath.Join(dir, "plain"))
	var servers []*inproc
	var tracedIx pathcache.Index
	for _, st := range []struct {
		path string
		opts *pathcache.Options
		wrap func(http.Handler) http.Handler
	}{{tracedPath, opts, rec.middleware}, {plainPath, nil, nil}} {
		if err := os.MkdirAll(filepath.Dir(st.path), 0o755); err != nil {
			return nil, err
		}
		ix, err := buildStore(s, pl.pts, st.path, st.opts)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", st.path, err)
		}
		srv, err := serveInProcess(ix, st.path, st.wrap)
		if err != nil {
			ix.Close()
			return nil, err
		}
		defer srv.close()
		servers = append(servers, srv)
		if tracedIx == nil {
			tracedIx = ix
		}
	}
	traced, plain := newEndpoint(servers[0].addr, pl), newEndpoint(servers[1].addr, pl)
	live := replay(pl, list, rec, traced, plain, t)
	levels := 0
	if lx, ok := tracedIx.(*pathcache.LSMIndex); ok {
		levels = len(lx.Levels())
	}

	// Pass 2: direct QueryProfile calls on the traced store, now quiescent:
	// on lsm-mixed its writer records are exactly the replay's live set.
	var direct []directProfile
	for i, rq := range list {
		if rq.op != opQuery {
			continue
		}
		id := int64(len(list) + i + 1)
		rec.req.Store(id)
		t0 := time.Now()
		pts, profs, err := queryDirect(tracedIx, rq.a, rq.b)
		call := span{Req: id, Name: "shard.query", Op: "query", Start: rec.ns(t0), End: rec.ns(time.Now())}
		rec.req.Store(0)
		t.attempted++
		if err != nil {
			t.fail("direct query {a:%d b:%d}: %v", rq.a, rq.b, err)
			continue
		}
		extra, err := checkAnswer(rq.a, rq.b, len(pts), pts, rq.want, pl.baseIDs())
		if err == nil {
			err = checkLive(rq.a, rq.b, extra, live)
		}
		if err != nil {
			t.fail("wrong answer: %v", err)
			continue
		}
		rec.add(call)
		direct = append(direct, directProfile{call: call, profs: profs})
	}
	for _, srv := range servers {
		if err := srv.close(); err != nil {
			return nil, err
		}
	}

	m, breakdown := layerMetrics(pl, rec.spans, len(list), direct, levels)
	tracedLat, plainLat := traced.latencies(), plain.latencies()
	m = append(m, metric{name: "trace.overhead_frac", unit: "ratio",
		value: median(tracedLat)/median(plainLat) - 1, samples: len(tracedLat) + len(plainLat)})
	for _, x := range m {
		printMetric(stdout, s.name, x)
	}
	fmt.Fprintln(stdout, breakdown)

	raw, err := json.Marshal(map[string]any{
		"workload": s.name, "seed": pl.seed, "requests": len(list),
		"note":  "req 1..requests are pass 1 (served, traced); higher ids are pass 2 (direct QueryProfile calls)",
		"spans": rec.spans,
	})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+s.name+".json")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# trace written to %s\n", path)
	return jsonLayers(m), nil
}

// checkLive verifies a quiescent lsm answer's writer records exactly: the
// live ones inside the quadrant, nothing else.
func checkLive(a, b int64, extra []pathcache.Point, live map[pathcache.Point]bool) error {
	want := 0
	for p := range live {
		if p.X >= a && p.Y >= b {
			want++
		}
	}
	for _, p := range extra {
		if !live[p] {
			return fmt.Errorf("query {a:%d b:%d} returned %+v, which is not live", a, b, p)
		}
	}
	if len(extra) != want {
		return fmt.Errorf("query {a:%d b:%d}: %d of the writer's records, want %d", a, b, len(extra), want)
	}
	return nil
}
