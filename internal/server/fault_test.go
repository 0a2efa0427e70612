package server

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcache"
	"pathcache/internal/disk"
)

// Fault battery: mid-request store faults, expired deadlines, exhausted
// quotas, saturated inflight and slow clients. The contract under every
// failure is the same — a typed error status, never a wrong answer, and
// full recovery once the fault clears.

// faultServer builds a twosided index whose pager routes through a
// FaultPager (budget initially unlimited) and serves it.
func faultServer(t *testing.T, cfg Config) (*testServer, *disk.FaultPager) {
	t.Helper()
	var fp *disk.FaultPager
	path := filepath.Join(t.TempDir(), "fault.pc")
	ix, err := pathcache.NewTwoSidedIndex(fixturePoints(200), pathcache.SchemeSegmented, &pathcache.Options{
		PageSize: 512,
		Path:     path,
		WrapPager: func(p disk.Pager) disk.Pager {
			fp = disk.NewFaultPager(p, 1<<40)
			return fp
		},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	handle := pathcache.NewHandle(path, ix)
	t.Cleanup(func() { handle.Close() })
	return startServerOn(t, handle, cfg), fp
}

func TestServeMidRequestStoreFault(t *testing.T) {
	ts, fp := faultServer(t, Config{})

	status, body := ts.post(t, "/v1/query", map[string]any{"a": 150, "b": 150})
	if status != 200 || count(t, body) != 50 {
		t.Fatalf("pre-fault query: status %d body %v", status, body)
	}

	fp.SetBudget(0)
	status, body = ts.post(t, "/v1/query", map[string]any{"a": 150, "b": 150})
	wantCode(t, status, body, 500, "store_fault")

	// Fault cleared: the exact pre-fault answer comes back — the failed
	// attempt corrupted nothing.
	fp.SetBudget(1 << 40)
	status, body = ts.post(t, "/v1/query", map[string]any{"a": 150, "b": 150})
	if status != 200 || count(t, body) != 50 {
		t.Fatalf("post-fault query: status %d body %v", status, body)
	}
}

func TestServeFaultDuringBatch(t *testing.T) {
	ts, fp := faultServer(t, Config{BatchWorkers: 4})
	qs := make([]map[string]any, 32)
	for i := range qs {
		qs[i] = map[string]any{"a": i, "b": i}
	}

	fp.SetBudget(10) // a few queries in, the store starts failing
	status, body := ts.post(t, "/v1/query/batch", map[string]any{"queries": qs})
	wantCode(t, status, body, 500, "store_fault")

	fp.SetBudget(1 << 40)
	status, body = ts.post(t, "/v1/query/batch", map[string]any{"queries": qs})
	if status != 200 {
		t.Fatalf("post-fault batch: status %d body %v", status, body)
	}
}

// slowPager delays every read until the test releases it, so a request can
// be held mid-store deterministically.
type slowPager struct {
	disk.Pager
	entered chan struct{} // closed on first delayed read
	release chan struct{} // reads block until this closes
	once    sync.Once
}

func (s *slowPager) Read(id disk.PageID, buf []byte) error {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return s.Pager.Read(id, buf)
}

// slowServer serves a twosided index whose first read blocks until release.
func slowServer(t *testing.T, cfg Config) (*testServer, *slowPager) {
	t.Helper()
	sp := &slowPager{entered: make(chan struct{}), release: make(chan struct{})}
	path := filepath.Join(t.TempDir(), "slow.pc")
	var armed atomic.Bool
	ix, err := pathcache.NewTwoSidedIndex(fixturePoints(200), pathcache.SchemeSegmented, &pathcache.Options{
		PageSize: 512,
		Path:     path,
		WrapPager: func(p disk.Pager) disk.Pager {
			sp.Pager = p
			// The build itself must not block; arm the slow path only
			// after construction by checking the flag per read.
			return pagerFunc{p, func(id disk.PageID, buf []byte) error {
				if armed.Load() {
					return sp.Read(id, buf)
				}
				return p.Read(id, buf)
			}}
		},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	armed.Store(true)
	handle := pathcache.NewHandle(path, ix)
	t.Cleanup(func() { handle.Close() })
	return startServerOn(t, handle, cfg), sp
}

// pagerFunc overrides just Read on an embedded pager.
type pagerFunc struct {
	disk.Pager
	read func(disk.PageID, []byte) error
}

func (p pagerFunc) Read(id disk.PageID, buf []byte) error { return p.read(id, buf) }

func TestServeDeadlineExpiry(t *testing.T) {
	ts, sp := slowServer(t, Config{})

	start := time.Now()
	status, body := ts.post(t, "/v1/query?deadline_ms=50", map[string]any{"a": 0, "b": 0})
	wantCode(t, status, body, 504, "deadline_exceeded")
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("timeout answer took %v; deadline did not cut the wait", e)
	}

	// Release the stalled operation; the server must be fully usable.
	close(sp.release)
	status, body = ts.post(t, "/v1/query", map[string]any{"a": 150, "b": 150})
	if status != 200 || count(t, body) != 50 {
		t.Fatalf("post-expiry query: status %d body %v", status, body)
	}

	// Deadlines too long for a time.Duration clamp to MaxDeadline instead
	// of wrapping negative into an immediate 504.
	for _, ms := range []string{"9223372036854775807", "10000000000000"} {
		status, body = ts.post(t, "/v1/query?deadline_ms="+ms, map[string]any{"a": 195, "b": 195})
		if status != 200 || count(t, body) != 5 {
			t.Fatalf("deadline_ms=%s: status %d body %v, want 200 with 5 points", ms, status, body)
		}
	}
}

func TestServeQuotaExhaustion(t *testing.T) {
	ts, _ := faultServer(t, Config{QuotaRate: 0.1, QuotaBurst: 2})
	c := &http.Client{}

	for i := 0; i < 2; i++ {
		status, body := ts.postClient(t, c, "/v1/query", "client-a", map[string]any{"a": 0, "b": 0})
		if status != 200 {
			t.Fatalf("request %d within burst: status %d body %v", i, status, body)
		}
	}

	// Bucket empty: typed 429 with a Retry-After hint.
	req, _ := http.NewRequest(http.MethodPost, ts.base+"/v1/query", nil)
	req.Header.Set("X-Client", "client-a")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("over-quota request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	// Quotas are per client: another identity is unaffected.
	status, body := ts.postClient(t, c, "/v1/query", "client-b", map[string]any{"a": 150, "b": 150})
	if status != 200 || count(t, body) != 50 {
		t.Fatalf("other client: status %d body %v", status, body)
	}
}

func TestServeInflightOverload(t *testing.T) {
	ts, sp := slowServer(t, Config{MaxInflight: 1})

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		status, body := ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0})
		if status != 200 {
			t.Errorf("held request finished %d %v, want 200", status, body)
		}
	}()
	<-sp.entered // the held request owns the only slot, stalled in the store

	status, body := ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0})
	wantCode(t, status, body, 429, "overloaded")

	close(sp.release)
	<-blocked
	if status, body := ts.post(t, "/v1/query", map[string]any{"a": 150, "b": 150}); status != 200 || count(t, body) != 50 {
		t.Fatalf("after release: status %d body %v", status, body)
	}
	if got := ts.srv.Metrics().OverloadDenials; got != 1 {
		t.Fatalf("OverloadDenials = %d, want 1", got)
	}
}

// TestServeSlowClient holds a request body open past the deadline: the
// server answers the typed timeout rather than hanging a slot on the
// trickling peer.
func TestServeSlowClient(t *testing.T) {
	ts, _ := faultServer(t, Config{DefaultDeadline: 100 * time.Millisecond})

	conn, err := net.Dial("tcp", ts.base[len("http://"):])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Promise 512 body bytes, deliver 9, stall.
	fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 512\r\n\r\n")
	fmt.Fprintf(conn, `{"a": 1, `)

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response for slow client: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 504 {
		t.Fatalf("slow client got %d, want 504 (deadline_exceeded)", resp.StatusCode)
	}

	// The stalled slot is not leaked: fresh requests still serve.
	status, body := ts.post(t, "/v1/query", map[string]any{"a": 150, "b": 150})
	if status != 200 || count(t, body) != 50 {
		t.Fatalf("after slow client: status %d body %v", status, body)
	}
}
