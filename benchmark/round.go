package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// A run builds its store at least minBuilds times and keeps building, up
// to maxBuilds, until buildSeconds have gone into builds; setup_s takes the
// median build. Small stores build in half a second, and three such builds
// are too few to outlast a burst of load from other tenants of the machine.
const (
	minBuilds    = 3
	maxBuilds    = 9
	buildSeconds = 3.0
)

// roundResult is what one round of one workload measured.
type roundResult struct {
	wall      time.Duration // measured phase, both clients
	tally                   // latencies of measured requests; counts of all
	cpu       float64       // pcserve CPU seconds in the measured phase
	clientCPU float64       // this process's CPU seconds in the measured phase
	steal     float64       // share of the machine's CPU time a hypervisor took in the measured phase
	rssMiB    float64       // pcserve peak RSS at the end of the round
	start     time.Duration // pcserve start to first /healthz ok
	spaceAmp  float64
	lsmCounts map[string]int64 // lsm-mixed: maintenance ops from /metrics
	// Page reads of the queries reads_per_op counts. On a static store
	// these are the first quarter of each client's measured list, a fixed
	// set, so the count repeats exactly for a seed however many queries
	// the time box lets through. On lsm-mixed they are all the reader's,
	// which race the writer's flushes and compactions.
	countedReads, countedQueries int64
}

func (r *roundResult) requests() int { return len(r.queryUS) + len(r.updateUS) }

// setupStore builds the workload's store through the public API as often
// as the constants above say, returning each build's wall time (build plus
// Close) and leaving the last build at path. On lsm-mixed that build is
// the pristine copy every round restores.
func setupStore(pl *plan, path string) ([]float64, error) {
	var times []float64
	for total := 0.0; len(times) < minBuilds || (total < buildSeconds && len(times) < maxBuilds); {
		if err := os.RemoveAll(path); err != nil {
			return nil, fmt.Errorf("clearing %s: %w", path, err)
		}
		t0 := time.Now()
		ix, err := buildStore(pl.spec, pl.pts, path, nil)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", pl.spec.name, err)
		}
		if err := ix.Close(); err != nil {
			return nil, fmt.Errorf("closing %s: %w", pl.spec.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[len(times)-1]
	}
	return times, nil
}

// selfCPUSeconds reads this process's user plus system CPU time so far:
// what the clients and their answer checks cost.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading the benchmark's CPU time: %w", err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// hostTicks reads the machine's CPU time from the first line of
// /proc/stat, in clock ticks: all of it, and the part stolen, when a
// hypervisor ran something else while this machine's CPUs had work.
func hostTicks() (total, steal int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("reading host CPU time: %w", err)
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("malformed /proc/stat line %q", line)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// copyFile copies src to dst, replacing dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// runRound serves the store at path from a fresh pcserve and drives round
// r's request lists through it: an untimed warm-up, then the measured
// phase. On lsm-mixed the store is first restored from pristine.
func runRound(pl *plan, r int, bin, path, pristine string) (roundResult, error) {
	var res roundResult
	s := pl.spec
	if s.lsm {
		if err := copyFile(pristine, path); err != nil {
			return res, fmt.Errorf("restoring %s: %w", path, err)
		}
	}
	srv, start, err := startServer(bin, path)
	if err != nil {
		return res, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	res.start = start
	clients := [2]*client{newClient(srv.addr), newClient(srv.addr)}
	defer clients[0].close()
	defer clients[1].close()
	ch := newChecker(pl)
	lists, warm := pl.rounds[r], s.warmup/2

	var t [2]tally
	runPair(func(c int) {
		for _, rq := range lists[c][:warm] {
			clients[c].do(rq, ch, &t[c], false)
		}
	})

	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return res, err
	}
	self0, err := selfCPUSeconds()
	if err != nil {
		return res, err
	}
	host0, steal0, err := hostTicks()
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	if s.lsm {
		// Client 0 writes its fixed update list; client 1 queries, cycling
		// through its list, until the writer is done.
		var writerDone atomic.Bool
		runPair(func(c int) {
			if c == 0 {
				for _, rq := range lists[0][warm:] {
					clients[0].do(rq, ch, &t[0], true)
				}
				writerDone.Store(true)
				return
			}
			qs := lists[1][warm:]
			for i := 0; !writerDone.Load(); i++ {
				clients[1].do(qs[i%len(qs)], ch, &t[1], true)
			}
		})
	} else {
		// Each client queries, cycling through its list, until the round's
		// time is up.
		deadline := t0.Add(pl.slice)
		runPair(func(c int) {
			qs := lists[c][warm:]
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				clients[c].do(qs[i%len(qs)], ch, &t[c], true)
			}
		})
	}
	res.wall = time.Since(t0)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return res, err
	}
	self1, err := selfCPUSeconds()
	if err != nil {
		return res, err
	}
	host1, steal1, err := hostTicks()
	if err != nil {
		return res, err
	}
	res.cpu, res.clientCPU = cpu1-cpu0, self1-self0
	res.steal = ratio(steal1-steal0, host1-host0)
	if res.rssMiB, err = srv.peakRSSMiB(); err != nil {
		return res, err
	}
	for c := range t {
		reads := t[c].queryReads
		if !s.lsm {
			reads = reads[:min(len(reads), (len(lists[c])-warm)/4)]
		}
		for _, n := range reads {
			res.countedReads += n
		}
		res.countedQueries += int64(len(reads))
	}
	res.merge(&t[0])
	res.merge(&t[1])

	if s.lsm {
		finalCheck(clients[0], pl, ch, &res.tally)
		if res.lsmCounts, err = scrapeLSM(srv.addr); err != nil {
			return res, err
		}
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return res, err
	}
	live := s.n
	if s.lsm {
		if err := ch.stamps.checkAll(res.obs); err != nil {
			res.fail("wrong answer: %v", err)
		}
		live += len(ch.stamps.live())
	}
	bytes, err := diskBytes(path)
	if err != nil {
		return res, err
	}
	res.spaceAmp = float64(bytes) / float64(live*recordBytes)
	return res, nil
}

// finalCheck queries the whole quadrant once the writer has stopped: the
// answer must be exactly the base records plus the writer's live inserts.
func finalCheck(c *client, pl *plan, ch *checker, t *tally) {
	rq := queryRequest(0, 0)
	rq.want = pl.oracle.all
	var ft tally
	c.do(rq, ch, &ft, false)
	t.attempted += ft.attempted
	if ft.failed > 0 {
		t.failed += ft.failed
		t.errs = append(t.errs, ft.errs...)
		return
	}
	live := ch.stamps.live()
	got := 0
	for _, p := range c.resp.Points {
		if p.ID > ch.baseIDs {
			if !live[p] {
				t.fail("final state holds %+v, which the writer never left live", p)
				return
			}
			got++
		}
	}
	if got != len(live) {
		t.fail("final state holds %d of the writer's records, want %d", got, len(live))
	}
}

// scrapeLSM reads pcserve's /metrics and returns the write tier's
// maintenance op counts.
func scrapeLSM(addr string) (map[string]int64, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	// Maintenance series are labeled by the level they seal (worker="<slot>");
	// sum over levels.
	out := map[string]int64{}
	for _, line := range strings.Split(string(raw), "\n") {
		for _, op := range []string{"flush", "compact"} {
			if !strings.HasPrefix(line, fmt.Sprintf(`pathcache_op_ops_total{kind="lsm",op=%q,`, op)) {
				continue
			}
			n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("malformed /metrics line %q", line)
			}
			out[op] += n
		}
	}
	return out, nil
}

// metric is one reported number. End-to-end metrics are taken over the
// rounds, with their spread.
type metric struct {
	name     string
	unit     string
	value    float64
	over     string // how value is taken from the per-round values: "median" or "best"
	iqr      float64
	samples  int // observations behind the value, over all rounds
	perRound []float64
	// unsupported marks a percentile with fewer than minTail samples
	// beyond it; printOnly keeps a metric out of the result object.
	unsupported, printOnly bool
}

// newMetric is the median over the rounds.
func newMetric(name, unit string, perRound []float64, samples int) metric {
	q1, q2, q3 := quartiles(perRound)
	return metric{name: name, unit: unit, value: q2, over: "median", iqr: q3 - q1, samples: samples, perRound: perRound}
}

// timeMetric is a rate, a CPU time or a tail latency over the rounds: the
// best round's value, the lowest (the highest for a rate, where higher is
// better). Other tenants of a shared machine only ever add time, in bursts
// that hit a few percent of a round and for minutes at a time, and these
// numbers move with every burst, so the best round is their most
// repeatable estimate; README.md has the measured spreads. A change that
// slows every request moves it as much as the median.
func timeMetric(name, unit string, perRound []float64, samples int, higherIsBetter bool) metric {
	m := newMetric(name, unit, perRound, samples)
	m.over = "best"
	if d := sortedCopy(perRound); len(d) > 0 {
		m.value = d[0]
		if higherIsBetter {
			m.value = d[len(d)-1]
		}
	}
	return m
}

// summarize turns the rounds of a run into the end-to-end metrics, plus
// the metrics that are printed but not part of the result.
func summarize(pl *plan, setup []float64, rounds []roundResult) (e2e, extra []metric) {
	var thr, rpo, cpu, clientCPU, steal, rss, space, starts, flushes, compacts []float64
	var queryUS, updateUS [][]float64
	var requests, counted int
	for _, r := range rounds {
		req := r.requests()
		requests += req
		counted += int(r.countedQueries)
		thr = append(thr, float64(req)/r.wall.Seconds())
		rpo = append(rpo, ratio(r.countedReads, r.countedQueries))
		cpu = append(cpu, r.cpu*1e6/float64(req))
		clientCPU = append(clientCPU, r.clientCPU*1e6/float64(req))
		steal = append(steal, r.steal)
		rss = append(rss, r.rssMiB)
		space = append(space, r.spaceAmp)
		starts = append(starts, r.start.Seconds())
		queryUS = append(queryUS, r.queryUS)
		updateUS = append(updateUS, r.updateUS)
		flushes = append(flushes, float64(r.lsmCounts["flush"]))
		compacts = append(compacts, float64(r.lsmCounts["compact"]))
	}
	e2e = []metric{
		{name: "setup_s", unit: "s", value: median(setup) + median(starts), over: "median", samples: len(setup) + len(starts)},
		timeMetric("throughput_ops_s", "1/s", thr, requests, true),
		roundPercentile("latency_p50_us", queryUS, 50),
		roundPercentile("latency_p99_us", queryUS, 99),
		newMetric("reads_per_op", "count", rpo, counted),
		timeMetric("server_cpu_us_per_op", "us", cpu, requests, false),
		newMetric("server_rss_mb", "MiB", rss, len(rounds)),
		newMetric("space_amp", "ratio", space, len(rounds)),
	}
	extra = []metric{
		timeMetric("client_cpu_us_per_op", "us", clientCPU, requests, false),
		// Not the program's doing, but what most often moves its times:
		// a run whose rounds lost much CPU time to the hypervisor reads slow.
		newMetric("host_steal_frac", "ratio", steal, len(rounds)),
	}
	if pl.spec.lsm {
		extra = append(extra,
			roundPercentile("update_p50_us", updateUS, 50),
			roundPercentile("update_p99_us", updateUS, 99),
			newMetric("lsm_flushes_per_round", "count", flushes, len(rounds)),
			newMetric("lsm_compactions_per_round", "count", compacts, len(rounds)),
		)
	}
	return e2e, extra
}

// roundPercentile takes each round's p-th percentile latency over the
// rounds, unsupported if any round's is: a tail percentile as a
// timeMetric, the median as the median round's. Half a round's requests
// must slow down to move its median, so rounds differ little in it, and
// their median is steadier than their minimum.
func roundPercentile(name string, rounds [][]float64, p float64) metric {
	var vals []float64
	n, unsupported := 0, false
	for _, r := range rounds {
		if len(r) == 0 {
			continue
		}
		v, ok := percentile(sortedCopy(r), p)
		vals = append(vals, v)
		n += len(r)
		unsupported = unsupported || !ok
	}
	m := newMetric(name, "us", vals, n)
	if p > 50 {
		m = timeMetric(name, "us", vals, n, false)
	}
	m.unsupported = unsupported
	return m
}

// printMetric prints one metric line: workload, name, value, unit, then
// how many samples it rests on and, for end-to-end metrics, how the value
// is taken from the rounds, their spread and their values.
func printMetric(w io.Writer, workload string, m metric) {
	fmt.Fprintf(w, "%s %s %.4g %s samples=%d", workload, m.name, m.value, m.unit, m.samples)
	if len(m.perRound) > 0 {
		parts := make([]string, len(m.perRound))
		for i, v := range m.perRound {
			parts[i] = fmt.Sprintf("%.4g", v)
		}
		fmt.Fprintf(w, " over_rounds=%s iqr=%.3g per_round=%s", m.over, m.iqr, strings.Join(parts, ","))
	}
	if m.unsupported {
		fmt.Fprintf(w, " (unsupported: fewer than %d samples beyond this percentile)", minTail)
	}
	fmt.Fprintln(w)
}
