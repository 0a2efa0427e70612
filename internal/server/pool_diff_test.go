package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"pathcache"
)

// The served differential for the buffer pool pcserve serves through: every
// kind pcindex builds (the Segmented scheme, path caching on) and the
// write tier over a point and an interval base, each served cold and
// through pools of 4 frames (evicting throughout) and 64 frames (pcserve's
// size). A pool may change how a request's pages are split between reads
// and cache hits, and nothing else:
//
//   - every answer is byte-identical to the cold server's;
//   - each query's pooled reads + cache_hits equal its cold reads: the
//     pool serves the same pages, only from memory (on the lsm rows too,
//     since one client leaves every server the same levels);
//   - a query repeated on the warm 64-frame pool reads 0 pages.
//
// The lsm rows also replay one update stream (inserts, deletes, flushes
// and a compaction) through every server, so the pool's write-back at each
// durability barrier sits between the queries it must not disturb, and
// every insert or delete reports the write its barrier put in the store.

// poolDiffPools are the pool sizes served beside the cold server; the
// last is the warm pool repeats are checked on.
var poolDiffPools = []int{4, 64}

// served is one server of the differential: a handler over its own copy
// of the store.
type served struct {
	name string
	h    http.Handler
}

// do sends one request and returns the status and body.
func (s served) do(t *testing.T, path string, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// splitIO cuts a result-bearing response into its answer (every byte
// before the io object) and its io object.
func splitIO(t *testing.T, body []byte) ([]byte, ioJSON) {
	t.Helper()
	i := bytes.LastIndex(body, []byte(`,"io":`))
	if i < 0 {
		t.Fatalf("response without io: %s", body)
	}
	var io struct {
		Reads     int64 `json:"reads"`
		Writes    int64 `json:"writes"`
		CacheHits int64 `json:"cache_hits"`
	}
	if err := json.Unmarshal(bytes.TrimSuffix(bytes.TrimSpace(body[i+len(`,"io":`):]), []byte("}")), &io); err != nil {
		t.Fatalf("decoding io of %s: %v", body, err)
	}
	return body[:i], ioJSON{Reads: io.Reads, Writes: io.Writes, CacheHits: io.CacheHits}
}

// poolDiffQuery draws one query of the kind's shape over the fixtures'
// coordinate range, as an endpoint and request body.
func poolDiffQuery(rng *rand.Rand, kind string) (string, []byte) {
	v := func() int64 { return rng.Int63n(230) - 10 }
	switch kind {
	case "twosided", "lsm":
		return "/v1/query", fmt.Appendf(nil, `{"a":%d,"b":%d}`, v(), v())
	case "threeside":
		a1, a2 := v(), v()
		return "/v1/query", fmt.Appendf(nil, `{"a1":%d,"a2":%d,"b":%d}`, min(a1, a2), max(a1, a2), v())
	case "window":
		x1, x2, y1, y2 := v(), v(), v(), v()
		return "/v1/window", fmt.Appendf(nil, `{"x1":%d,"x2":%d,"y1":%d,"y2":%d}`, min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2))
	default:
		return "/v1/stab", fmt.Appendf(nil, `{"q":%d}`, v())
	}
}

// poolDiffUpdate draws one write-tier request: mostly inserts of fresh
// records, deletes of ones the stream inserted, and now and then a flush
// or compaction.
func poolDiffUpdate(rng *rand.Rand, kind string, step int, inserted *[][3]int64) (string, []byte) {
	switch r := rng.Intn(20); {
	case r == 0:
		return "/v1/flush", nil
	case r == 1:
		return "/v1/compact", nil
	case r < 6 && len(*inserted) > 0:
		i := rng.Intn(len(*inserted))
		rec := (*inserted)[i]
		*inserted = append((*inserted)[:i], (*inserted)[i+1:]...)
		return "/v1/delete", fmt.Appendf(nil, `{"x":%d,"y":%d,"id":%d}`, rec[0], rec[1], rec[2])
	}
	x, y := rng.Int63n(220), rng.Int63n(220)
	if kind == "lsm-segment" { // the diagonal-corner encoding of [x, x+len]
		x, y = -x, x+1+rng.Int63n(20)
	}
	rec := [3]int64{x, y, int64(10_000 + step)}
	*inserted = append(*inserted, rec)
	return "/v1/insert", fmt.Appendf(nil, `{"x":%d,"y":%d,"id":%d}`, rec[0], rec[1], rec[2])
}

func TestServePooledDifferential(t *testing.T) {
	kinds := []string{"twosided", "threeside", "window", "segment", "interval", "stabbing", "lsm", "lsm-segment"}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			src, err := os.ReadFile(buildKind(t, dir, kind))
			if err != nil {
				t.Fatal(err)
			}
			open := func(name string, opts *pathcache.Options) served {
				path := filepath.Join(dir, name+".pc")
				if err := os.WriteFile(path, src, 0o644); err != nil {
					t.Fatal(err)
				}
				h, err := pathcache.OpenHandle(path, opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { h.Close() })
				return served{name, New(h, Config{}).Handler()}
			}
			cold := open("cold", nil)
			var pools []served
			for _, n := range poolDiffPools {
				pools = append(pools, open(fmt.Sprintf("pool%d", n), &pathcache.Options{BufferPoolPages: n}))
			}
			warm := pools[len(pools)-1]
			static := kind != "lsm" && kind != "lsm-segment"

			rng := rand.New(rand.NewSource(int64(len(kind))))
			var inserted [][3]int64
			hits := int64(0)
			for step := 0; step < 300; step++ {
				if !static && step%3 == 0 {
					path, body := poolDiffUpdate(rng, kind, step, &inserted)
					for _, s := range append([]served{cold}, pools...) {
						status, resp := s.do(t, path, body)
						if status != http.StatusOK {
							t.Fatalf("step %d %s %s %s: status %d %s", step, s.name, path, body, status, resp)
						}
						if path != "/v1/insert" && path != "/v1/delete" {
							continue
						}
						if _, io := splitIO(t, resp); io.Writes < 1 {
							t.Fatalf("step %d %s %s %s: %d writes; the WAL append's barrier must charge its write-back", step, s.name, path, body, io.Writes)
						}
					}
					continue
				}
				path, body := poolDiffQuery(rng, kind)
				status, resp := cold.do(t, path, body)
				if status != http.StatusOK {
					t.Fatalf("step %d cold %s %s: status %d %s", step, path, body, status, resp)
				}
				want, coldIO := splitIO(t, resp)
				for _, s := range pools {
					status, resp := s.do(t, path, body)
					if status != http.StatusOK {
						t.Fatalf("step %d %s %s %s: status %d %s", step, s.name, path, body, status, resp)
					}
					got, io := splitIO(t, resp)
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d %s %s %s:\n got %s\nwant %s", step, s.name, path, body, got, want)
					}
					if io.Reads+io.CacheHits != coldIO.Reads {
						t.Fatalf("step %d %s %s %s: reads %d + cache_hits %d != cold reads %d",
							step, s.name, path, body, io.Reads, io.CacheHits, coldIO.Reads)
					}
					hits += io.CacheHits
				}
				if coldIO.CacheHits != 0 {
					t.Fatalf("step %d: the cold server reports %d cache hits", step, coldIO.CacheHits)
				}
				_, again := warm.do(t, path, body)
				if got, io := splitIO(t, again); !bytes.Equal(got, want) || io.Reads != 0 {
					t.Fatalf("step %d %s repeat of %s %s: reads %d, answer equal %v; want 0 reads, same answer",
						step, warm.name, path, body, io.Reads, bytes.Equal(got, want))
				}
			}
			if hits == 0 {
				t.Fatal("the pools never hit")
			}
		})
	}
}
