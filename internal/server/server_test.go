package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Endpoint basics: every kind answers its own query shape with exact
// results and exact per-op I/O attribution, and every mismatch between a
// request and the served kind is a typed 400 — decided without touching
// the store.

func TestServeQueryTwoSided(t *testing.T) {
	ts := startServer(t, buildKind(t, t.TempDir(), "twosided"), Config{})
	status, body := ts.post(t, "/v1/query", map[string]any{"a": 150, "b": 150})
	if status != 200 {
		t.Fatalf("status = %d, body %v", status, body)
	}
	// Diagonal fixture: {x >= 150, y >= 150} over 200 points hits 50.
	if got := count(t, body); got != 50 {
		t.Fatalf("count = %d, want 50", got)
	}
	io, ok := body["io"].(map[string]any)
	if !ok {
		t.Fatalf("response has no io block: %v", body)
	}
	if reads, _ := io["reads"].(float64); reads <= 0 {
		t.Fatalf("io.reads = %v, want > 0 (exact op-scoped attribution)", io["reads"])
	}
}

func TestServeQueryThreeSided(t *testing.T) {
	ts := startServer(t, buildKind(t, t.TempDir(), "threeside"), Config{})
	status, body := ts.post(t, "/v1/query", map[string]any{"a1": 50, "a2": 99, "b": 0})
	if status != 200 {
		t.Fatalf("status = %d, body %v", status, body)
	}
	// {50 <= x <= 99, y >= 0} on the diagonal hits exactly 50 points.
	if got := count(t, body); got != 50 {
		t.Fatalf("count = %d, want 50", got)
	}
}

func TestServeWindow(t *testing.T) {
	ts := startServer(t, buildKind(t, t.TempDir(), "window"), Config{})
	status, body := ts.post(t, "/v1/window", map[string]any{"x1": 10, "x2": 19, "y1": 0, "y2": 199})
	if status != 200 {
		t.Fatalf("status = %d, body %v", status, body)
	}
	if got := count(t, body); got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
}

func TestServeStabKinds(t *testing.T) {
	for _, kind := range []string{"segment", "interval", "stabbing"} {
		t.Run(kind, func(t *testing.T) {
			ts := startServer(t, buildKind(t, t.TempDir(), kind), Config{})
			status, body := ts.post(t, "/v1/stab", map[string]any{"q": 50})
			if status != 200 {
				t.Fatalf("status = %d, body %v", status, body)
			}
			// Intervals [i, i+10]: q=50 is inside [40,50] … [50,60] — 11 of them.
			if got := count(t, body); got != 11 {
				t.Fatalf("count = %d, want 11", got)
			}
		})
	}
}

func TestServeLSMReadPath(t *testing.T) {
	ts := startServer(t, buildKind(t, t.TempDir(), "lsm"), Config{})

	status, body := ts.post(t, "/v1/query", map[string]any{"a": 150, "b": 150})
	if status != 200 {
		t.Fatalf("query status = %d, body %v", status, body)
	}
	if got := count(t, body); got != 50 {
		t.Fatalf("query count = %d, want 50", got)
	}

	status, body = ts.post(t, "/v1/search", map[string]any{"x": 7, "y": 7, "id": 8})
	if status != 200 {
		t.Fatalf("search status = %d, body %v", status, body)
	}
	if found, _ := body["found"].(bool); !found {
		t.Fatalf("search: fixture record not found: %v", body)
	}
	status, body = ts.post(t, "/v1/search", map[string]any{"x": 7, "y": 7, "id": 9999})
	if status != 200 {
		t.Fatalf("negative search status = %d, body %v", status, body)
	}
	if found, _ := body["found"].(bool); found {
		t.Fatalf("negative search: phantom record found: %v", body)
	}
}

func TestServeLSMWritePath(t *testing.T) {
	ts := startServer(t, buildKind(t, t.TempDir(), "lsm"), Config{})

	status, body := ts.post(t, "/v1/insert", map[string]any{"x": 1000, "y": 1000, "id": 9001})
	if status != 200 {
		t.Fatalf("insert status = %d, body %v", status, body)
	}
	if recs, _ := body["records"].(float64); recs != 201 {
		t.Fatalf("records after insert = %v, want 201", body["records"])
	}

	status, body = ts.post(t, "/v1/query", map[string]any{"a": 1000, "b": 1000})
	if status != 200 || count(t, body) != 1 {
		t.Fatalf("query after insert: status %d count %v", status, body)
	}

	status, body = ts.post(t, "/v1/flush", nil)
	if status != 200 {
		t.Fatalf("flush status = %d, body %v", status, body)
	}
	status, body = ts.post(t, "/v1/delete", map[string]any{"x": 1000, "y": 1000, "id": 9001})
	if status != 200 {
		t.Fatalf("delete status = %d, body %v", status, body)
	}
	status, body = ts.post(t, "/v1/query", map[string]any{"a": 1000, "b": 1000})
	if status != 200 || count(t, body) != 0 {
		t.Fatalf("query after delete: status %d body %v", status, body)
	}

	status, body = ts.post(t, "/v1/compact", nil)
	if status != 200 {
		t.Fatalf("compact status = %d, body %v", status, body)
	}
	status, body = ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0})
	if status != 200 || count(t, body) != 200 {
		t.Fatalf("query after compact: status %d count %v", status, body)
	}
}

func TestServeBatchEndpoints(t *testing.T) {
	t.Run("query", func(t *testing.T) {
		ts := startServer(t, buildKind(t, t.TempDir(), "twosided"), Config{BatchWorkers: 4})
		qs := make([]map[string]any, 16)
		for i := range qs {
			qs[i] = map[string]any{"a": i * 10, "b": i * 10}
		}
		status, body := ts.post(t, "/v1/query/batch", map[string]any{"queries": qs, "workers": 4})
		if status != 200 {
			t.Fatalf("status = %d, body %v", status, body)
		}
		// Query i returns 200 - 10i points; sum over i=0..15 is 2000.
		if results, _ := body["results"].(float64); results != 2000 {
			t.Fatalf("results = %v, want 2000", body["results"])
		}
		if workers, _ := body["workers"].(float64); workers != 4 {
			t.Fatalf("workers = %v, want 4", body["workers"])
		}
	})
	t.Run("window", func(t *testing.T) {
		ts := startServer(t, buildKind(t, t.TempDir(), "window"), Config{BatchWorkers: 2})
		qs := []map[string]any{
			{"x1": 0, "x2": 9, "y1": 0, "y2": 199},
			{"x1": 100, "x2": 119, "y1": 0, "y2": 199},
		}
		status, body := ts.post(t, "/v1/window/batch", map[string]any{"queries": qs})
		if status != 200 {
			t.Fatalf("status = %d, body %v", status, body)
		}
		if results, _ := body["results"].(float64); results != 30 {
			t.Fatalf("results = %v, want 30", body["results"])
		}
	})
	t.Run("stab", func(t *testing.T) {
		ts := startServer(t, buildKind(t, t.TempDir(), "segment"), Config{BatchWorkers: 2})
		status, body := ts.post(t, "/v1/stab/batch", map[string]any{"qs": []int64{50, 60, 5}})
		if status != 200 {
			t.Fatalf("status = %d, body %v", status, body)
		}
		// 11 + 11 + 6 results ([0,10] … [5,15] contain q=5).
		if results, _ := body["results"].(float64); results != 28 {
			t.Fatalf("results = %v, want 28", body["results"])
		}
	})
}

// TestServeErrorMapping is the wire-contract table: one row per failure
// mode, each asserting (status, code) — and by construction none of these
// requests can return a wrong answer, because none returns 200.
func TestServeErrorMapping(t *testing.T) {
	dir := t.TempDir()
	twosided := startServer(t, buildKind(t, dir, "twosided"), Config{MaxBatch: 4})
	threeside := startServer(t, buildKind(t, dir, "threeside"), Config{})
	window := startServer(t, buildKind(t, dir, "window"), Config{})
	lsm := startServer(t, buildKind(t, dir, "lsm"), Config{})
	lsmSegment := startServer(t, buildKind(t, dir, "lsm-segment"), Config{})

	cases := []struct {
		name   string
		ts     *testServer
		path   string
		body   any
		status int
		code   string
	}{
		{"malformed json", twosided, "/v1/query", `{"a": 1,`, 400, "bad_request"},
		{"unknown field", twosided, "/v1/query", `{"a": 1, "b": 2, "frob": 3}`, 400, "bad_request"},
		{"trailing garbage", twosided, "/v1/query", `{"a": 1, "b": 2} {"x": 1}`, 400, "bad_request"},
		{"missing field", twosided, "/v1/query", `{"a": 1}`, 400, "bad_request"},
		{"wrong shape for kind", twosided, "/v1/query", `{"a1": 1, "a2": 2, "b": 3}`, 400, "bad_request"},
		{"window on twosided", twosided, "/v1/window", map[string]any{"x1": 0, "x2": 1, "y1": 0, "y2": 1}, 400, "unsupported_shape"},
		{"query on window kind", window, "/v1/query", map[string]any{"a": 1, "b": 2}, 400, "unsupported_shape"},
		{"stab on twosided", twosided, "/v1/stab", map[string]any{"q": 1}, 400, "unsupported_shape"},
		{"search on static kind", twosided, "/v1/search", map[string]any{"x": 1, "y": 1, "id": 1}, 400, "unsupported_shape"},
		{"insert on static kind", twosided, "/v1/insert", map[string]any{"x": 1, "y": 1, "id": 1}, 400, "read_only_kind"},
		{"flush on static kind", twosided, "/v1/flush", nil, 400, "read_only_kind"},
		{"compact on static kind", twosided, "/v1/compact", nil, 400, "read_only_kind"},
		{"malformed window range", window, "/v1/window", map[string]any{"x1": 9, "x2": 0, "y1": 0, "y2": 1}, 400, "bad_request"},
		{"malformed 3-sided range", threeside, "/v1/query", `{"a1": 9, "a2": 0, "b": 1}`, 400, "bad_request"},
		{"2-sided shape on threeside", threeside, "/v1/query", `{"a": 1, "b": 2}`, 400, "bad_request"},
		{"empty batch", twosided, "/v1/query/batch", map[string]any{"queries": []any{}}, 400, "bad_request"},
		{"oversized batch", twosided, "/v1/query/batch",
			map[string]any{"queries": []map[string]any{{"a": 1, "b": 1}, {"a": 1, "b": 1}, {"a": 1, "b": 1}, {"a": 1, "b": 1}, {"a": 1, "b": 1}}},
			400, "batch_too_large"},
		{"unknown route", twosided, "/v1/frobnicate", nil, 404, "not_found"},
		// The write tier answers its base kind's shape.
		{"query on lsm over segment", lsmSegment, "/v1/query", map[string]any{"a": 1, "b": 2}, 400, "unsupported_shape"},
		{"query batch on lsm over segment", lsmSegment, "/v1/query/batch", map[string]any{"queries": []map[string]any{{"a": 1, "b": 2}}}, 400, "unsupported_shape"},
		{"stab on lsm over twosided", lsm, "/v1/stab", map[string]any{"q": 1}, 400, "unsupported_shape"},
		{"stab batch on lsm over twosided", lsm, "/v1/stab/batch", map[string]any{"qs": []int64{1}}, 400, "unsupported_shape"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := tc.ts.post(t, tc.path, tc.body)
			wantCode(t, status, body, tc.status, tc.code)
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		status, body := twosided.get(t, "/v1/query")
		if status != 405 {
			t.Fatalf("GET /v1/query = %d %s, want 405", status, body)
		}
	})
}

func TestServeOversizedBody(t *testing.T) {
	ts := startServer(t, buildKind(t, t.TempDir(), "twosided"), Config{MaxBodyBytes: 64})
	huge := `{"a": 1, "b": 2,` + strings.Repeat(" ", 100) + `}`
	status, body := ts.post(t, "/v1/query", huge)
	wantCode(t, status, body, 400, "bad_request")
}

func TestServeHealthzAndVarz(t *testing.T) {
	ts := startServer(t, buildKind(t, t.TempDir(), "lsm"), Config{})

	status, raw := ts.get(t, "/healthz")
	if status != 200 || !bytes.Contains(raw, []byte("ok")) {
		t.Fatalf("healthz = %d %q", status, raw)
	}

	ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0})
	status, raw = ts.get(t, "/varz")
	if status != 200 {
		t.Fatalf("varz = %d %s", status, raw)
	}
	var v struct {
		Kind    string `json:"kind"`
		Records int    `json:"records"`
		Serve   struct {
			Endpoints []struct {
				Endpoint string `json:"Endpoint"`
				Requests int64  `json:"Requests"`
			} `json:"Endpoints"`
		} `json:"serve"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("varz decode: %v\n%s", err, raw)
	}
	if v.Kind != "lsm" || v.Records != 200 {
		t.Fatalf("varz kind=%q records=%d, want lsm/200", v.Kind, v.Records)
	}
	found := false
	for _, e := range v.Serve.Endpoints {
		if e.Endpoint == "query" && e.Requests >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("varz missing query endpoint series: %s", raw)
	}
}

func TestServeMetricsExposition(t *testing.T) {
	ts := startServer(t, buildKind(t, t.TempDir(), "twosided"), Config{})
	ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0})

	status, raw := ts.get(t, "/metrics")
	if status != 200 {
		t.Fatalf("metrics = %d", status)
	}
	for _, want := range []string{
		`pcserve_requests_total{endpoint="query"} 1`,
		"pcserve_quota_denials_total 0",
		"pcserve_inflight 0",
		`pathcache_op_ops_total{kind="twosided",op="query",worker="serial"} 1`,
		`pathcache_op_reads_sum{kind="twosided",op="query",worker="serial"}`,
		`pathcache_op_bound_ratio_max{kind="twosided",op="query",worker="serial"}`,
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, raw)
		}
	}
}
