// Command pcbench regenerates the experiment tables of EXPERIMENTS.md: for
// every theorem of the paper (and the conceptual figures), it measures page
// transfers and storage on the simulated disk and prints them beside the
// predicted terms.
//
// Usage:
//
//	pcbench [-exp e1|e2|...|s1|all] [-page 4096] [-seed 1] [-small] [-list] [-json DIR]
//
// -json DIR writes the same tables to DIR/BENCH_io.json instead of printing
// them, beside an environment block (Go version, GOOS/GOARCH, NumCPU,
// GOMAXPROCS, commit, backend, page size, seed and -small). The committed
// BENCH_io.json at the repository root is `pcbench -small -json .`, and a
// test compares every cell of it against a fresh run. Every table is
// measured before the file is replaced, so a failed run leaves it as it
// was.
package main

import (
	"flag"
	"fmt"
	"os"

	"pathcache/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (e1..e10, f2, f4, a1..a3, l1, s1, all)")
	page := flag.Int("page", 4096, "simulated disk page size in bytes")
	seed := flag.Int64("seed", 1, "workload seed")
	small := flag.Bool("small", false, "reduced sizes (seconds instead of minutes)")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonDir := flag.String("json", "", "write the tables to BENCH_io.json in this directory instead of printing them")
	flag.Parse()

	if *list {
		for _, r := range bench.Runners() {
			fmt.Printf("%-4s %s\n", r.Name, r.Desc)
		}
		return
	}

	runners := bench.Runners()
	if *exp != "all" {
		var picked []bench.Runner
		for _, r := range runners {
			if r.Name == *exp {
				picked = append(picked, r)
			}
		}
		if len(picked) == 0 {
			fmt.Fprintf(os.Stderr, "pcbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(1)
		}
		runners = picked
	}
	cfg := bench.Config{PageSize: *page, Seed: *seed, Small: *small}
	if err := run(cfg, runners, *jsonDir); err != nil {
		fmt.Fprintln(os.Stderr, "pcbench:", err)
		os.Exit(1)
	}
}

func run(cfg bench.Config, runners []bench.Runner, jsonDir string) error {
	if jsonDir != "" {
		path, err := bench.WriteJSON(jsonDir, cfg, runners)
		if err == nil {
			fmt.Println(path)
		}
		return err
	}
	for i, r := range runners {
		t, err := r.Run(cfg)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Println()
		}
		if err := t.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
