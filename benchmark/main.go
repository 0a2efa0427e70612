// Command benchmark is the repository's performance contract. For one
// workload it builds the store through the public API, serves it from fresh
// pcserve processes, drives each with two closed-loop HTTP clients, checks
// every answer against an oracle, and prints the end-to-end metrics; with
// -trace 1 it instead replays the workload in-process with timing hooks at
// every layer seam and prints per-layer metrics. README.md has the metric
// table and the reasons for each workload.
//
// Usage (run.sh builds pcserve and this command from the checkout first):
//
//	bash benchmark/run.sh --workload search-uniform --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 12, "measured run length; sizes the rounds' request lists")
	trace := fs.Int("trace", 0, "1 replays the workload in-process with timing hooks and reports per-layer metrics")
	pcserve := fs.String("pcserve", "", "pcserve binary built from the tree under test")
	work := fs.String("work", ".bench_build", "directory for stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := specFor(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || (*trace == 0 && *pcserve == "") {
		fmt.Fprintln(stderr, "benchmark: need -seconds > 0, -trace 0 or 1, and -pcserve unless tracing")
		return 2
	}
	res, err := runWorkload(s, *seed, *seconds, *trace == 1, *pcserve, *work, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload generates the run's inputs, measures, prints one line per
// metric and returns the result object.
func runWorkload(s spec, seed int64, seconds float64, traced bool, pcserve, work string, stdout io.Writer) (*result, error) {
	pl := makePlan(s, seed, seconds)
	printEnv(stdout, pl, seconds, traced)
	dir := filepath.Join(work, "data", s.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var metrics []metric
	var t tally
	var err error
	if traced {
		metrics, err = runTrace(pl, dir, filepath.Join(work, "trace"), &t, stdout)
	} else {
		metrics, err = runServed(pl, dir, pcserve, &t, stdout)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range t.errs {
		fmt.Fprintf(stdout, "# error: %s\n", e)
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range metrics {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

// runServed is the untraced run: set up, then every round against a fresh
// pcserve.
func runServed(pl *plan, dir, pcserve string, t *tally, stdout io.Writer) ([]metric, error) {
	s := pl.spec
	path := storePath(s, dir)
	setup, err := setupStore(pl, path)
	if err != nil {
		return nil, err
	}
	// The clients spend a few microseconds per request; on one P their
	// idle threads stop spinning on the CPUs pcserve is measured on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pristine := path + ".pristine"
	if s.lsm {
		if err := os.Rename(path, pristine); err != nil {
			return nil, err
		}
	}
	var rounds []roundResult
	for r := 0; r < s.rounds; r++ {
		res, err := runRound(pl, r, pcserve, path, pristine)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r+1, err)
		}
		t.attempted += res.attempted
		t.failed += res.failed
		t.errs = append(t.errs, res.errs...)
		rounds = append(rounds, res)
	}
	e2e, extra := summarize(pl, setup, rounds)
	fmt.Fprintf(stdout, "# setup: builds_s=%v, then a pcserve start to /healthz ok per round\n", setup)
	for _, m := range append(e2e, extra...) {
		printMetric(stdout, s.name, m)
	}
	fmt.Fprintf(stdout, "%s error_rate %.4g ratio failed=%d attempted=%d\n",
		s.name, float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	return e2e, nil
}

// printEnv prints the machine and input block every run starts with.
func printEnv(w io.Writer, pl *plan, seconds float64, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				modified = kv.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+dirty"
			}
		}
	}
	s := pl.spec
	fmt.Fprintf(w, "# env num_cpu=%d gomaxprocs=%d go=%s commit=%s backend=file page_size=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, pageSize)
	fmt.Fprintf(w, "# run workload=%s n=%d shards=%d lsm=%v seed=%d seconds=%g rounds=%d round_s=%g clients=2 trace=%v\n",
		s.name, s.n, max(s.shards, 1), s.lsm, pl.seed, seconds, s.rounds, pl.slice.Seconds(), traced)
}
