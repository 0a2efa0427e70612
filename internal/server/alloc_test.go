package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"pathcache"
	"pathcache/internal/race"
)

// TestServeQueryAllocs caps the allocations of one in-process /v1/query on
// a reopened file-backed twosided store, cold and through the buffer pool
// pcserve serves with: admission, body read, decode, the engine op and the
// response write. httptest.NewRequest's own allocations are measured
// separately and subtracted.
func TestServeQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool items and allocates")
	}
	path := buildKind(t, t.TempDir(), "twosided")
	for _, tc := range []struct {
		name string
		opts *pathcache.Options
	}{
		{"cold", nil},
		{"pooled", &pathcache.Options{BufferPoolPages: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			handle, err := pathcache.OpenHandle(path, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer handle.Close()
			h := New(handle, Config{}).Handler()
			body := []byte(`{"a":180,"b":185}`)
			w := &discardWriter{h: http.Header{}}
			newReq := func() *http.Request {
				return httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
			}
			serve := func() { h.ServeHTTP(w, newReq()) }
			serve()
			reqOnly := testing.AllocsPerRun(200, func() { newReq() })
			total := testing.AllocsPerRun(200, serve)
			n := total - reqOnly
			t.Logf("/v1/query: %.1f allocs per request (httptest.NewRequest adds %.1f)", n, reqOnly)
			if n > 20 {
				t.Fatalf("/v1/query: %.1f allocs per request, want <= 20", n)
			}
		})
	}
}

// TestDecodeQueryAllocs pins the fast decoder: a valid /v1/query body
// decodes without allocating, its fields pointing into the request's own
// storage.
func TestDecodeQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool items and allocates")
	}
	body := []byte(`{"a":180,"b":-185}`)
	req := new(queryReq)
	if got := testing.AllocsPerRun(200, func() {
		*req = queryReq{}
		if aerr := decodeReq(body, req); aerr != nil {
			t.Fatal(aerr)
		}
	}); got != 0 {
		t.Fatalf("decoding %s: %.1f allocs, want 0", body, got)
	}
	if req.A == nil || *req.A != 180 || req.B == nil || *req.B != -185 || req.A1 != nil || req.A2 != nil {
		t.Fatalf("decoded %s wrongly", body)
	}
}
