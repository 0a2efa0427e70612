package server

import (
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pathcache"
)

// The server must serve a sharded store transparently: the same wire
// protocol, the same typed errors, with scatter-gather underneath and the
// per-shard admin surface (shard reload, shard rows in /varz, shard-tagged
// series in /metrics) on top.

// buildShardedKind persists a small sharded store of the named kind under
// dir and returns its directory path.
func buildShardedKind(t testing.TB, dir, kind string, shards int) string {
	t.Helper()
	store := filepath.Join(dir, kind+".shards")
	opts := &pathcache.Options{PageSize: 512, BufferPoolPages: 16}
	plan := pathcache.ShardPlan{Shards: shards, Scheme: pathcache.SchemeSegmented}
	var (
		s   *pathcache.Sharded
		err error
	)
	switch kind {
	case "twosided", "threeside", "window":
		s, err = pathcache.BuildShardedPoints(store, kind, fixturePoints(200), plan, opts)
	case "stabbing":
		s, err = pathcache.BuildShardedIntervals(store, kind, fixtureIntervals(100), plan, opts)
	case "lsm":
		opts.MemtableEntries = 32
		s, err = pathcache.BuildShardedPoints(store, kind, fixturePoints(200), plan, opts)
	default:
		t.Fatalf("buildShardedKind: unknown kind %q", kind)
	}
	if err != nil {
		t.Fatalf("build sharded %s: %v", kind, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close sharded %s: %v", kind, err)
	}
	return store
}

// TestServeSharded runs the read path, the admin surface and the typed
// refusals against a sharded static store.
func TestServeSharded(t *testing.T) {
	store := buildShardedKind(t, t.TempDir(), "twosided", 3)
	ts := startServer(t, store, Config{})

	// The diagonal fixture: {x >= a, y >= b} returns 200 - max(a, b).
	status, body := ts.post(t, "/v1/query", map[string]any{"a": 150, "b": 0})
	if status != http.StatusOK || count(t, body) != 50 {
		t.Fatalf("query: status=%d body=%v, want 50 points", status, body)
	}
	// A query crossing every shard still merges exactly.
	status, body = ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0})
	if status != http.StatusOK || count(t, body) != 200 {
		t.Fatalf("full query: status=%d body=%v, want 200 points", status, body)
	}
	if io, ok := body["io"].(map[string]any); !ok || io["reads"].(float64) <= 0 {
		t.Fatalf("query response carries no I/O attribution: %v", body)
	}

	status, body = ts.post(t, "/v1/query/batch", map[string]any{
		"queries": []map[string]any{{"a": 0, "b": 0}, {"a": 150, "b": 0}, {"a": 199, "b": 199}},
		"workers": 3,
	})
	if status != http.StatusOK {
		t.Fatalf("batch: status=%d body=%v", status, body)
	}
	if got := body["results"].(float64); got != 200+50+1 {
		t.Fatalf("batch results = %v, want 251", got)
	}

	// Shapes the content kind cannot answer are typed 400s, not 500s.
	status, body = ts.post(t, "/v1/window", map[string]any{"x1": 0, "x2": 10, "y1": 0, "y2": 10})
	wantCode(t, status, body, http.StatusBadRequest, codeUnsupportedShape)
	status, body = ts.post(t, "/v1/stab", map[string]any{"q": 5})
	wantCode(t, status, body, http.StatusBadRequest, codeUnsupportedShape)
	status, body = ts.post(t, "/v1/search", map[string]any{"x": 1, "y": 1, "id": 2})
	wantCode(t, status, body, http.StatusBadRequest, codeUnsupportedShape)
	status, body = ts.post(t, "/v1/insert", map[string]any{"x": 1, "y": 1, "id": 999})
	wantCode(t, status, body, http.StatusBadRequest, codeReadOnlyKind)

	// /varz names the sharded kind and lists every shard's key range.
	status, raw := ts.get(t, "/varz")
	if status != http.StatusOK {
		t.Fatalf("varz: status=%d", status)
	}
	vz := string(raw)
	for _, want := range []string{`"kind":"shard"`, `"content_kind":"twosided"`, `"shards":[`, `"file":"shard-0000.pc"`} {
		if !strings.Contains(vz, want) {
			t.Errorf("varz missing %s:\n%s", want, vz)
		}
	}

	// /metrics tags every index series with its shard.
	status, raw = ts.get(t, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status=%d", status)
	}
	if !strings.Contains(string(raw), `shard="0"`) || !strings.Contains(string(raw), `shard="2"`) {
		t.Errorf("metrics missing shard-tagged series:\n%s", raw)
	}

	// Per-shard reload swaps one shard; the full reload swaps the store.
	status, body = ts.post(t, "/admin/reload", map[string]any{"shard": 1})
	if status != http.StatusOK || body["ok"] != true {
		t.Fatalf("shard reload: status=%d body=%v", status, body)
	}
	status, body = ts.post(t, "/admin/reload", map[string]any{"shard": 99})
	wantCode(t, status, body, http.StatusBadRequest, codeBadRequest)
	status, body = ts.post(t, "/admin/reload", nil)
	if status != http.StatusOK || body["ok"] != true {
		t.Fatalf("full reload: status=%d body=%v", status, body)
	}
	if gen := ts.handle.Generation(); gen != 1 {
		t.Fatalf("generation after full reload = %d, want 1", gen)
	}
	// The store still answers after both swaps.
	status, body = ts.post(t, "/v1/query", map[string]any{"a": 150, "b": 0})
	if status != http.StatusOK || count(t, body) != 50 {
		t.Fatalf("query after reloads: status=%d body=%v, want 50 points", status, body)
	}
}

// TestServeShardedStab runs the interval read path against sharded
// stabbing shards.
func TestServeShardedStab(t *testing.T) {
	store := buildShardedKind(t, t.TempDir(), "stabbing", 2)
	ts := startServer(t, store, Config{})

	// fixtureIntervals: interval i covers [i, i+10], so q = 50 hits the 11
	// intervals i in [40, 50].
	status, body := ts.post(t, "/v1/stab", map[string]any{"q": 50})
	if status != http.StatusOK || count(t, body) != 11 {
		t.Fatalf("stab: status=%d body=%v, want 11 intervals", status, body)
	}
	status, body = ts.post(t, "/v1/stab/batch", map[string]any{"qs": []int64{20, 50, 80}, "workers": 2})
	if status != http.StatusOK || body["results"].(float64) != 33 {
		t.Fatalf("stab batch: status=%d body=%v, want 33 results", status, body)
	}
	status, body = ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0})
	wantCode(t, status, body, http.StatusBadRequest, codeUnsupportedShape)
}

// TestServeShardedLSMShape pins that a sharded lsm store answers its
// base's shape: a stab on lsm-over-twosided shards is a typed 400.
func TestServeShardedLSMShape(t *testing.T) {
	ts := startServer(t, buildShardedKind(t, t.TempDir(), "lsm", 2), Config{})
	status, body := ts.post(t, "/v1/stab", map[string]any{"q": 50})
	wantCode(t, status, body, http.StatusBadRequest, codeUnsupportedShape)
}

// TestServeShardedLSM exercises the write path routed through per-shard
// write tiers: insert, search, delete, flush and compact (sync and
// background) against a sharded lsm store.
func TestServeShardedLSM(t *testing.T) {
	store := buildShardedKind(t, t.TempDir(), "lsm", 3)
	ts := startServer(t, store, Config{})

	status, body := ts.post(t, "/v1/search", map[string]any{"x": 10, "y": 10, "id": 11})
	if status != http.StatusOK || body["found"] != true {
		t.Fatalf("search built record: status=%d body=%v", status, body)
	}

	// Insert records landing in different shards, then find them.
	for _, x := range []int64{5, 100, 190} {
		status, body = ts.post(t, "/v1/insert", map[string]any{"x": x, "y": x, "id": 1000 + x})
		if status != http.StatusOK {
			t.Fatalf("insert x=%d: status=%d body=%v", x, status, body)
		}
	}
	if got := body["records"].(float64); got != 203 {
		t.Fatalf("records after inserts = %v, want 203", got)
	}
	for _, x := range []int64{5, 100, 190} {
		status, body = ts.post(t, "/v1/search", map[string]any{"x": x, "y": x, "id": 1000 + x})
		if status != http.StatusOK || body["found"] != true {
			t.Fatalf("search x=%d: status=%d body=%v", x, status, body)
		}
	}

	status, body = ts.post(t, "/v1/delete", map[string]any{"x": 100, "y": 100, "id": 1100})
	if status != http.StatusOK {
		t.Fatalf("delete: status=%d body=%v", status, body)
	}
	status, body = ts.post(t, "/v1/search", map[string]any{"x": 100, "y": 100, "id": 1100})
	if status != http.StatusOK || body["found"] != false {
		t.Fatalf("search deleted record: status=%d body=%v", status, body)
	}

	status, body = ts.post(t, "/v1/flush", nil)
	if status != http.StatusOK || body["ok"] != true {
		t.Fatalf("flush: status=%d body=%v", status, body)
	}
	status, body = ts.post(t, "/v1/compact", nil)
	if status != http.StatusOK || body["ok"] != true {
		t.Fatalf("compact: status=%d body=%v", status, body)
	}

	// Background compaction of a sharded store completes and counts in
	// /varz without blocking the response.
	status, body = ts.post(t, "/v1/compact", map[string]any{"background": true})
	if status != http.StatusOK || body["background"] != true {
		t.Fatalf("background compact: status=%d body=%v", status, body)
	}
	counted := false
	for i := 0; i < 500 && !counted; i++ {
		_, raw := ts.get(t, "/varz")
		counted = strings.Contains(string(raw), `"compactions":{"ok":1`)
		if !counted {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !counted {
		t.Fatal("background compaction never counted in /varz")
	}

	// The survivors: 200 built + 3 inserted - 1 deleted.
	status, body = ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0})
	if status != http.StatusOK || count(t, body) != 202 {
		t.Fatalf("query after maintenance: status=%d body=%v, want 202 points", status, body)
	}
}
