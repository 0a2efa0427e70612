package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSeconds is TestSmoke's run length.
const smokeSeconds = 0.5

// scaled shrinks a workload to n records and one round whose request
// lists hold about measured requests (updates, on lsm-mixed) in a run of
// smokeSeconds, keeping its query shape.
func scaled(t *testing.T, name string, n, measured int) spec {
	t.Helper()
	s, err := specFor(name)
	if err != nil {
		t.Fatal(err)
	}
	if s.aMax != domain/2 {
		s.aMax = domain - int64(2*s.results)*domain/int64(n)
	}
	s.n, s.rounds, s.warmup = n, 1, 20
	s.rate = float64(measured) / smokeSeconds
	if s.lsm {
		s.memtable = 128 // several flushes in a short list
	}
	return s
}

// requestBytes concatenates every request of a plan.
func requestBytes(pl *plan) []byte {
	var buf bytes.Buffer
	for _, round := range pl.rounds {
		for _, list := range round {
			for _, rq := range list {
				buf.Write(rq.body)
				buf.WriteByte('\n')
			}
		}
	}
	return buf.Bytes()
}

func TestPlanDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		s := scaled(t, name, 2000, 400)
		one, again, other := makePlan(s, 1, smokeSeconds), makePlan(s, 1, smokeSeconds), makePlan(s, 2, smokeSeconds)
		if !bytes.Equal(requestBytes(one), requestBytes(again)) {
			t.Errorf("%s: seed 1 gave two different request lists", name)
		}
		if bytes.Equal(requestBytes(one), requestBytes(other)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", name)
		}
		if len(requestBytes(one)) == 0 {
			t.Errorf("%s: empty request list", name)
		}
	}
}

// TestSmoke runs every workload end to end at n = 10,000 with one round —
// served through a pcserve built from this tree, then traced — twice, and
// checks that the answers were all right, that every metric the result
// object promises is there, and that the counts repeat exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pcserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pcserve")
	build := exec.Command("go", "build", "-o", bin, "pathcache/cmd/pcserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pcserve: %v\n%s", err, out)
	}
	sizes := map[string]int{"search-uniform": 2000, "search-hot": 2000, "report-sharded": 100, "lsm-mixed": 400}
	for _, name := range workloadNames {
		s := scaled(t, name, 10_000, sizes[name])
		var served, traced [2]*result
		for i := range served {
			var out bytes.Buffer
			var err error
			if served[i], err = runWorkload(s, 3, smokeSeconds, false, bin, dir, &out); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out.String())
			}
			checkResult(t, name, served[i], []string{"setup_s", "throughput_ops_s", "latency_p50_us",
				"latency_p99_us", "reads_per_op", "server_cpu_us_per_op", "server_rss_mb", "space_amp"}, out.String())
			out.Reset()
			if traced[i], err = runWorkload(s, 3, smokeSeconds, true, bin, dir, &out); err != nil {
				t.Fatalf("%s traced: %v\n%s", name, err, out.String())
			}
			checkResult(t, name, traced[i], []string{"client.self_us", "server.self_us", "pathcache.self_us",
				"pathcache.pages_per_op", "shard.fanout", "disk.read_p50_us", "disk.busy_frac", "lsm.flushes",
				"trace.overhead_frac"}, out.String())
		}
		// Static stores answer the same queries with the same reads; the
		// lsm writer's fixed list leaves the same store behind.
		exact := []string{"space_amp"}
		if !s.lsm {
			exact = append(exact, "reads_per_op")
		}
		for _, m := range exact {
			if a, b := served[0].Metrics[m].Value, served[1].Metrics[m].Value; a != b {
				t.Errorf("%s %s: %v then %v", name, m, a, b)
			}
		}
		for _, m := range []string{"pathcache.pages_per_op", "pathcache.path_pages_per_op", "lsm.flushes", "lsm.compactions"} {
			if a, b := traced[0].Metrics[m].Value, traced[1].Metrics[m].Value; a != b {
				t.Errorf("%s %s: %v then %v", name, m, a, b)
			}
		}
		if s.lsm && traced[0].Metrics["lsm.flushes"].Value == 0 {
			t.Errorf("%s: the traced replay flushed nothing", name)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace", "trace-"+name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
	}
}

func checkResult(t *testing.T, name string, r *result, want []string, out string) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", name, r.Correct, r.Failed, r.Attempted, out)
	}
	for _, m := range want {
		if _, ok := r.Metrics[m]; !ok {
			t.Errorf("%s: no metric %s", name, m)
		}
	}
	raw, err := json.Marshal(r)
	if err != nil || !strings.HasPrefix(string(raw), `{"correct":true,"attempted":`) {
		t.Errorf("%s: result object %s (%v)", name, raw, err)
	}
}
