package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Every runner must produce a non-empty table without error in Small mode,
// with one cell per header column in every row.
func TestAllRunnersSmall(t *testing.T) {
	cfg := Config{Small: true, PageSize: 512, Seed: 3}
	for _, r := range Runners() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			tab, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != r.Name || len(tab.Rows) == 0 {
				t.Fatalf("%s: table %q with %d rows", r.Name, tab.ID, len(tab.Rows))
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("%s: row %d has %d cells for %d columns: %q", r.Name, i, len(row), len(tab.Header), row)
				}
			}
			var buf bytes.Buffer
			if err := tab.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			if out := buf.String(); len(out) < 40 || !strings.Contains(out, "\n") {
				t.Fatalf("%s: suspiciously short output: %q", r.Name, out)
			}
		})
	}
}

// TestRunAllSmall prints every runner's table in sequence, as pcbench does
// with no -run filter, and checks each experiment's heading is in the output.
func TestRunAllSmall(t *testing.T) {
	var buf bytes.Buffer
	for _, r := range Runners() {
		tab, err := r.Run(Config{Small: true, PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"E1:", "E2:", "E3:", "E4:", "E5/F3:", "E6:", "E7:", "E8:", "E9:", "E10 ",
		"F2:", "F4:", "A1 ", "A2 ", "A3 ", "L1:", "S1:"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

// TestWriteJSON writes BENCH_io.json at small scale into a fresh directory
// and checks it parses back with the configuration echoed and one
// well-formed table per runner, in runner order.
func TestWriteJSON(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{PageSize: 1024, Seed: 1, Small: true}
	rs := Runners()
	path, err := WriteJSON(dir, cfg, rs)
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, ioFileName) {
		t.Fatalf("wrote %s, want %s", path, filepath.Join(dir, ioFileName))
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got IOFile
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if e := got.Env; e.PageSize != 1024 || e.Seed != 1 || !e.Small || e.Backend != "mem" || e.Machine.Go == "" {
		t.Fatalf("environment echo mismatch: %+v", e)
	}
	if len(got.Tables) != len(rs) {
		t.Fatalf("%d tables, want %d", len(got.Tables), len(rs))
	}
	for i, tab := range got.Tables {
		if tab.ID != rs[i].Name || len(tab.Title) == 0 || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("table %d: id %q, %d title lines, %d columns, %d rows",
				i, tab.ID, len(tab.Title), len(tab.Header), len(tab.Rows))
		}
		for r, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s: row %d has %d cells for %d columns", tab.ID, r, len(row), len(tab.Header))
			}
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only %s", len(ents), err, ioFileName)
	}
}

func TestRunnersHaveUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Runners() {
		if seen[r.Name] {
			t.Fatalf("duplicate runner %q", r.Name)
		}
		seen[r.Name] = true
		if r.Desc == "" || r.run == nil {
			t.Fatalf("runner %q incomplete", r.Name)
		}
	}
}

// goldenCfg is the configuration the committed BENCH_io.json holds.
var goldenCfg = Config{Small: true, PageSize: 4096, Seed: 1}

// TestBenchIOGolden regenerates every table and compares each cell with the
// committed BENCH_io.json: page reads, results and pages are exact, so any
// change to what a structure reads shows here. Only the machine and commit
// fields of the environment may differ. After an intentional change,
// regenerate the file with `make bench-json` and say why in CHANGES.md.
func TestBenchIOGolden(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", ioFileName))
	if err != nil {
		t.Fatal(err)
	}
	var want IOFile
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s does not parse: %v", ioFileName, err)
	}
	got, err := runTables(goldenCfg, Runners())
	if err != nil {
		t.Fatal(err)
	}
	env := envOf(goldenCfg)
	for _, e := range []*Env{&env, &want.Env} {
		e.Machine, e.Commit, e.Modified = Machine{}, "", false
	}
	if env != want.Env {
		t.Fatalf("environment: got %+v, want %+v", env, want.Env)
	}
	if len(got) != len(want.Tables) {
		t.Fatalf("%d tables, want %d", len(got), len(want.Tables))
	}
	for i, g := range got {
		w := want.Tables[i]
		if reflect.DeepEqual(g, w) {
			continue
		}
		cells := 0
		for r := 0; r < len(g.Rows) && r < len(w.Rows); r++ {
			for c := 0; c < len(g.Rows[r]) && c < len(w.Rows[r]) && c < len(g.Header); c++ {
				if g.Rows[r][c] != w.Rows[r][c] {
					t.Errorf("%s row %d column %q: got %s, want %s", g.ID, r, g.Header[c], g.Rows[r][c], w.Rows[r][c])
					cells++
				}
			}
		}
		if cells == 0 {
			gj, _ := json.Marshal(g)
			wj, _ := json.Marshal(w)
			t.Errorf("table %d differs:\n got %s\nwant %s", i, gj, wj)
		}
	}
}

// TestWriteJSONAtomic pins that a failing runner leaves an existing
// BENCH_io.json exactly as it was, with no temporary file behind.
func TestWriteJSONAtomic(t *testing.T) {
	dir := t.TempDir()
	prev := filepath.Join(dir, ioFileName)
	const old = `{"tables":[]}` + "\n"
	if err := os.WriteFile(prev, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	ranFirst := false
	fail := errors.New("injected")
	rs := []Runner{
		{Name: "ok", run: func(cfg Config) (*Table, error) { ranFirst = true; return RunF4(cfg) }},
		{Name: "fail", run: func(Config) (*Table, error) { return nil, fail }},
	}
	if _, err := WriteJSON(dir, goldenCfg, rs); !errors.Is(err, fail) {
		t.Fatalf("WriteJSON with a failing runner: got %v, want %v", err, fail)
	}
	if !ranFirst {
		t.Fatal("first runner never ran; injection is miswired")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("failed run left %d files behind", len(ents))
	}
	if blob, err := os.ReadFile(prev); err != nil || string(blob) != old {
		t.Fatalf("failed run clobbered the previous file: %q, %v", blob, err)
	}
}
