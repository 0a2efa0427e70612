package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pathcache"
)

// The binary smoke test: boot run() exactly as main would, drive it over
// real HTTP, hot-reload with SIGHUP, then drain with SIGTERM — in-flight
// behavior is covered by internal/server; this pins the wiring.

// syncBuffer lets the server goroutine write stdout while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func buildIndex(t *testing.T, path string, n int) {
	t.Helper()
	pts := make([]pathcache.Point, n)
	for i := range pts {
		pts[i] = pathcache.Point{X: int64(i), Y: int64(i), ID: uint64(i + 1)}
	}
	tmp := path + ".next"
	ix, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented,
		&pathcache.Options{PageSize: 512, Path: tmp})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatalf("rename: %v", err)
	}
}

var addrRE = regexp.MustCompile(`http://([0-9.:]+)`)

func TestServeSmokeAndSignals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "smoke.pc")
	buildIndex(t, path, 100)

	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-index", path, "-addr", "127.0.0.1:0"}, &out)
	}()

	// The serving line announces the bound port.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; output: %q", out.String())
		}
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	get := func(p string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}
	query := func(a, b int) (int, map[string]any) {
		t.Helper()
		body := strings.NewReader(fmt.Sprintf(`{"a": %d, "b": %d}`, a, b))
		resp, err := http.Post(base+"/v1/query", "application/json", body)
		if err != nil {
			t.Fatalf("POST /v1/query: %v", err)
		}
		defer resp.Body.Close()
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	if status, raw := get("/healthz"); status != 200 {
		t.Fatalf("healthz = %d %q", status, raw)
	}
	if status, m := query(0, 0); status != 200 || m["count"].(float64) != 100 {
		t.Fatalf("query = %d %v, want 200/count 100", status, m)
	}
	// pcserve serves through a buffer pool, and a reload reopens with it:
	// a repeated query is all cache hits.
	warm := func() {
		t.Helper()
		_, m := query(0, 0)
		if io, ok := m["io"].(map[string]any); !ok || io["reads"].(float64) != 0 || io["cache_hits"].(float64) == 0 {
			t.Fatalf("repeated query = %v, want 0 reads and some cache hits", m)
		}
	}
	warm()

	// SIGHUP hot reload: swap a 250-point index under the same path.
	buildIndex(t, path, 250)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	reloaded := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if status, m := query(0, 0); status == 200 && m["count"].(float64) == 250 {
			reloaded = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !reloaded {
		t.Fatalf("SIGHUP did not install the rebuilt index")
	}
	warm()

	// SIGTERM drains: run returns nil and reports the drain.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not return after SIGTERM; output: %q", out.String())
	}
	if s := out.String(); !strings.Contains(s, "draining") || !strings.Contains(s, "drained") {
		t.Fatalf("drain transcript missing from output: %q", s)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatalf("listener still accepting after drain")
	}
}

func TestServeFlagErrors(t *testing.T) {
	var out syncBuffer
	if err := run([]string{}, &out); err == nil {
		t.Fatalf("run without -index succeeded")
	}
	if err := run([]string{"-index", filepath.Join(t.TempDir(), "absent.pc")}, &out); err == nil {
		t.Fatalf("run on a missing index file succeeded")
	}
}
