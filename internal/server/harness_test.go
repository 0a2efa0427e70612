package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"pathcache"
)

// Shared fixtures: small deterministic indexes of every kind, a booted
// server on a real listener, and JSON request helpers.

// fixturePoints lays n points on the diagonal — point i is (i, i) with
// ID i+1 — so query answers are computable by hand: a 2-sided query
// {x >= a, y >= b} returns exactly n - max(a, b) points.
func fixturePoints(n int) []pathcache.Point {
	pts := make([]pathcache.Point, n)
	for i := range pts {
		pts[i] = pathcache.Point{X: int64(i), Y: int64(i), ID: uint64(i + 1)}
	}
	return pts
}

func fixtureIntervals(n int) []pathcache.Interval {
	ivs := make([]pathcache.Interval, n)
	for i := range ivs {
		// interval i covers [i, i+10], so a stab at q hits ~10 intervals.
		ivs[i] = pathcache.Interval{Lo: int64(i), Hi: int64(i + 10), ID: uint64(i + 1)}
	}
	return ivs
}

func fixtureOpts(path string) *pathcache.Options {
	return &pathcache.Options{PageSize: 512, BufferPoolPages: 16, Path: path}
}

// buildKind persists one small index of the named kind under dir and
// returns its path.
func buildKind(t testing.TB, dir, kind string) string {
	t.Helper()
	path := filepath.Join(dir, kind+".pc")
	var (
		ix  interface{ Close() error }
		err error
	)
	switch kind {
	case "twosided":
		ix, err = pathcache.NewTwoSidedIndex(fixturePoints(200), pathcache.SchemeSegmented, fixtureOpts(path))
	case "threeside":
		ix, err = pathcache.NewThreeSidedIndex(fixturePoints(200), fixtureOpts(path))
	case "window":
		ix, err = pathcache.NewWindowIndex(fixturePoints(200), fixtureOpts(path))
	case "segment":
		ix, err = pathcache.NewSegmentIndex(fixtureIntervals(100), true, fixtureOpts(path))
	case "interval":
		ix, err = pathcache.NewIntervalIndex(fixtureIntervals(100), true, fixtureOpts(path))
	case "stabbing":
		ix, err = pathcache.NewStabbingIndex(fixtureIntervals(100), pathcache.SchemeSegmented, fixtureOpts(path))
	case "lsm":
		o := fixtureOpts(path)
		o.MemtableEntries = 32
		ix, err = pathcache.BuildDynamic("twosided", fixturePoints(200), o)
	case "lsm-segment":
		// The write tier over an interval base stores the diagonal-corner
		// encodings of the intervals.
		ivs := fixtureIntervals(100)
		pts := make([]pathcache.Point, len(ivs))
		for i, iv := range ivs {
			pts[i] = pathcache.IntervalToDynamicPoint(iv)
		}
		o := fixtureOpts(path)
		o.MemtableEntries = 32
		ix, err = pathcache.BuildDynamic("segment", pts, o)
	default:
		t.Fatalf("buildKind: unknown kind %q", kind)
	}
	if err != nil {
		t.Fatalf("build %s: %v", kind, err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("close %s: %v", kind, err)
	}
	return path
}

// testServer is one booted pcserve engine on a real TCP listener.
type testServer struct {
	srv    *Server
	handle *pathcache.Handle
	base   string
	done   chan error
}

// startServer opens path into a Handle and serves it on 127.0.0.1:0.
func startServer(t testing.TB, path string, cfg Config) *testServer {
	t.Helper()
	handle, err := pathcache.OpenHandle(path)
	if err != nil {
		t.Fatalf("open handle: %v", err)
	}
	ts := startServerOn(t, handle, cfg)
	t.Cleanup(func() { handle.Close() })
	return ts
}

// startServerOn serves an existing handle (ownership stays with the
// caller) on a fresh listener, draining it at test end.
func startServerOn(t testing.TB, handle *pathcache.Handle, cfg Config) *testServer {
	t.Helper()
	srv := New(handle, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ts := &testServer{
		srv:    srv,
		handle: handle,
		base:   "http://" + ln.Addr().String(),
		done:   make(chan error, 1),
	}
	go func() { ts.done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := testContext(5 * time.Second)
		defer cancel()
		srv.Drain(ctx)
		<-ts.done
	})
	return ts
}

// post sends body as JSON to path and returns the status plus decoded
// response object.
func (ts *testServer) post(t testing.TB, path string, body any) (int, map[string]any) {
	t.Helper()
	return ts.postClient(t, http.DefaultClient, path, "", body)
}

// postClient is post with an explicit client and X-Client identity.
func (ts *testServer) postClient(t testing.TB, c *http.Client, path, client string, body any) (int, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case nil:
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(b); err != nil {
			t.Fatalf("encode body: %v", err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, ts.base+path, &buf)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if client != "" {
		req.Header.Set("X-Client", client)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("POST %s: non-JSON response %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode, out
}

// get fetches path and returns status plus raw body.
func (ts *testServer) get(t testing.TB, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, raw
}

// wantCode asserts a typed error response: the status and the wire code.
func wantCode(t testing.TB, status int, body map[string]any, wantStatus int, wantCode string) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d (body %v), want %d", status, body, wantStatus)
	}
	if got, _ := body["code"].(string); got != wantCode {
		t.Fatalf("code = %q (body %v), want %q", got, body, wantCode)
	}
}

// count extracts the "count" field of a query response.
func count(t testing.TB, body map[string]any) int {
	t.Helper()
	v, ok := body["count"].(float64)
	if !ok {
		t.Fatalf("response has no count: %v", body)
	}
	return int(v)
}

func testContext(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
