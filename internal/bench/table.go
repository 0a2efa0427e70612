package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

// Table is one experiment's result, the single record both outputs come
// from: pcbench prints it as text and BENCH_io.json stores it as is. Cells
// hold the printed strings, so the text table and the JSON never disagree.
type Table struct {
	ID     string     `json:"id"`
	Title  []string   `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

func newTable(header string, title ...string) *Table {
	return &Table{Title: title, Header: strings.Split(header, "\t")}
}

// addf appends one row, formatted like a tabwriter line: cells split at tabs.
func (t *Table) addf(format string, args ...any) {
	t.Rows = append(t.Rows, strings.Split(fmt.Sprintf(format, args...), "\t"))
}

// WriteText prints the table: title lines, a blank line, the aligned
// columns, then any notes after another blank line.
func (t *Table) WriteText(w io.Writer) error {
	for _, l := range t.Title {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(t.Notes) > 0 {
		fmt.Fprintln(w)
	}
	for _, l := range t.Notes {
		fmt.Fprintln(w, l)
	}
	return nil
}

// Runner describes one experiment for the CLI.
type Runner struct {
	Name string
	Desc string
	run  func(Config) (*Table, error)
}

// Run measures the experiment and returns its table, stamped with the
// runner's name.
func (r Runner) Run(cfg Config) (*Table, error) {
	t, err := r.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.Name, err)
	}
	t.ID = r.Name
	return t, nil
}

// Runners lists every experiment in EXPERIMENTS.md order.
func Runners() []Runner {
	return []Runner{
		{"e1", "2-sided query I/Os: cached schemes vs IKO", RunE1},
		{"e2", "storage ladder across schemes and page sizes", RunE2},
		{"e3", "recursive schemes keep optimal queries", RunE3},
		{"e4", "dynamic structure: amortized updates and queries", RunE4},
		{"e5", "segment tree: naive vs path-cached (also F3)", RunE5},
		{"e6", "interval tree vs segment tree vs stabbing reduction", RunE6},
		{"e7", "3-sided queries", RunE7},
		{"e8", "B+-tree baseline on 2-D queries", RunE8},
		{"e9", "dynamic 3-sided structure (Theorem 5.2)", RunE9},
		{"e10", "extension: 4-sided window range tree", RunE10},
		{"f2", "skeletal B-tree descent cost", RunF2},
		{"f4", "Figure 4 block classification and decomposition", RunF4},
		{"a1", "ablation: cache chunk length (Theorem 3.2's log B)", RunA1},
		{"a2", "ablation: buffer pool size vs cold bounds", RunA2},
		{"a3", "ablation: workload shape vs query constants", RunA3},
		{"l1", "LSM write tier: update cost and post-churn queries", RunL1},
		{"s1", "sharding: single store vs 4 shards, uniform and Zipf", RunS1},
	}
}

// runTables runs rs in order and returns their tables.
func runTables(cfg Config, rs []Runner) ([]*Table, error) {
	tables := make([]*Table, 0, len(rs))
	for _, r := range rs {
		t, err := r.Run(cfg)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// ioFileName is the file WriteJSON writes.
const ioFileName = "BENCH_io.json"

// IOFile is the payload of BENCH_io.json: the tables and the environment
// that produced them.
type IOFile struct {
	Env    Env      `json:"env"`
	Tables []*Table `json:"tables"`
}

// Env records where and how the tables were measured. Machine and the
// commit fields describe the run; the rest fixes the cells.
type Env struct {
	Machine Machine `json:"machine"`
	// Commit and Modified are the binary's vcs.revision and vcs.modified
	// build settings, when the build recorded them.
	Commit   string `json:"commit,omitempty"`
	Modified bool   `json:"modified,omitempty"`
	// Backend is the pager the experiments run on: "mem", the in-memory
	// simulated disk (S1's sharded side is a shard directory of files).
	Backend  string `json:"backend"`
	PageSize int    `json:"page_size"`
	Seed     int64  `json:"seed"`
	Small    bool   `json:"small"`
}

// Machine identifies the host and toolchain.
type Machine struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// envOf returns the environment block for tables measured under cfg by
// this binary.
func envOf(cfg Config) Env {
	env := Env{
		Machine: Machine{
			Go:         runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Backend:  "mem",
		PageSize: cfg.pageSize(),
		Seed:     cfg.seed(),
		Small:    cfg.Small,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

// WriteJSON runs rs and writes their tables, with cfg's environment, to
// dir/BENCH_io.json (dir is created if missing). It returns the path.
// Every table is measured before anything is written, and the file is
// replaced by a rename, so a failing runner leaves an existing file as it
// was.
func WriteJSON(dir string, cfg Config, rs []Runner) (string, error) {
	tables, err := runTables(cfg, rs)
	if err != nil {
		return "", err
	}
	blob, err := json.MarshalIndent(IOFile{Env: envOf(cfg), Tables: tables}, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, ioFileName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}
