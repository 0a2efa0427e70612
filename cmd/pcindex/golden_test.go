package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from current output")

// TestGoldenOutput replays a fixed script of pcindex invocations over the
// checked-in fixtures and compares the concatenated stdout against
// testdata/golden.txt byte for byte. It pins the whole user-visible
// contract at once — result sets, result order, page-read counts, info
// formatting — so any behavior drift in the index layers or the CLI shows
// up as a readable diff. Regenerate intentionally with `make golden`, i.e.:
//
//	go test ./cmd/pcindex -run TestGoldenOutput -update
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the tool")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	ptsCSV, err := filepath.Abs(filepath.Join("testdata", "points.csv"))
	if err != nil {
		t.Fatal(err)
	}
	ivsCSV, err := filepath.Abs(filepath.Join("testdata", "intervals.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// Index files live in a temp dir; every occurrence of either directory
	// in the output is normalized so the transcript is machine-independent.
	script := [][]string{
		{"build", "-type", "twosided", "-scheme", "segmented", "-in", ptsCSV, "-out", filepath.Join(dir, "two.pc"), "-page", "512"},
		{"info", "-in", filepath.Join(dir, "two.pc")},
		{"query", "-in", filepath.Join(dir, "two.pc"), "-q", "30 30"},
		{"query", "-in", filepath.Join(dir, "two.pc"), "-q", "30 30", "-limit", "2"},
		{"build", "-type", "twosided", "-scheme", "iko", "-in", ptsCSV, "-out", filepath.Join(dir, "iko.pc"), "-page", "512"},
		{"query", "-in", filepath.Join(dir, "iko.pc"), "-q", "30 30"},
		{"build", "-type", "threeside", "-in", ptsCSV, "-out", filepath.Join(dir, "three.pc"), "-page", "512"},
		{"info", "-in", filepath.Join(dir, "three.pc")},
		{"query", "-in", filepath.Join(dir, "three.pc"), "-q", "20 70 40"},
		{"build", "-type", "stabbing", "-in", ivsCSV, "-out", filepath.Join(dir, "stab.pc"), "-page", "512"},
		{"info", "-in", filepath.Join(dir, "stab.pc")},
		{"query", "-in", filepath.Join(dir, "stab.pc"), "-q", "33"},
		{"build", "-type", "segment", "-in", ivsCSV, "-out", filepath.Join(dir, "seg.pc"), "-page", "512"},
		{"info", "-in", filepath.Join(dir, "seg.pc")},
		{"query", "-in", filepath.Join(dir, "seg.pc"), "-q", "33"},
		{"build", "-type", "interval", "-in", ivsCSV, "-out", filepath.Join(dir, "itv.pc"), "-page", "512"},
		{"info", "-in", filepath.Join(dir, "itv.pc")},
		{"query", "-in", filepath.Join(dir, "itv.pc"), "-q", "33"},
		{"build", "-type", "window", "-in", ptsCSV, "-out", filepath.Join(dir, "win.pc"), "-page", "512"},
		{"info", "-in", filepath.Join(dir, "win.pc")},
		{"query", "-in", filepath.Join(dir, "win.pc"), "-q", "20 70 30 80"},
		{"build", "-type", "lsm", "-base", "twosided", "-memtable", "8", "-in", ptsCSV, "-out", filepath.Join(dir, "dyn.pc"), "-page", "512"},
		{"info", "-in", filepath.Join(dir, "dyn.pc")},
		{"query", "-in", filepath.Join(dir, "dyn.pc"), "-q", "30 30"},
		{"build", "-type", "lsm", "-base", "stabbing", "-memtable", "8", "-in", ivsCSV, "-out", filepath.Join(dir, "dynstab.pc"), "-page", "512"},
		{"info", "-in", filepath.Join(dir, "dynstab.pc")},
		{"query", "-in", filepath.Join(dir, "dynstab.pc"), "-q", "33"},
		{"build", "-type", "twosided", "-scheme", "segmented", "-shards", "3", "-in", ptsCSV, "-out", filepath.Join(dir, "two.shards"), "-page", "512"},
		{"info", "-in", filepath.Join(dir, "two.shards")},
		{"query", "-in", filepath.Join(dir, "two.shards"), "-q", "30 30"},
		{"build", "-type", "stabbing", "-shards", "2", "-in", ivsCSV, "-out", filepath.Join(dir, "stab.shards"), "-page", "512"},
		{"info", "-in", filepath.Join(dir, "stab.shards")},
		{"query", "-in", filepath.Join(dir, "stab.shards"), "-q", "33"},
		{"build", "-type", "lsm", "-base", "twosided", "-memtable", "8", "-shards", "2", "-in", ptsCSV, "-out", filepath.Join(dir, "dyn.shards"), "-page", "512"},
		{"info", "-in", filepath.Join(dir, "dyn.shards")},
		{"query", "-in", filepath.Join(dir, "dyn.shards"), "-q", "30 30"},
		{"verify", "-in", filepath.Join(dir, "two.pc")},
		{"verify", "-in", filepath.Join(dir, "two.shards")},
		{"verify", "-in", filepath.Join(dir, "seg.pc")},
		{"verify", "-in", filepath.Join(dir, "dyn.pc")},
		{"stats", "-in", filepath.Join(dir, "two.pc")},
		{"stats", "-in", filepath.Join(dir, "three.pc")},
		{"stats", "-in", filepath.Join(dir, "stab.pc")},
		{"stats", "-in", filepath.Join(dir, "seg.pc")},
		{"stats", "-in", filepath.Join(dir, "itv.pc")},
		{"stats", "-in", filepath.Join(dir, "win.pc")},
		{"stats", "-in", filepath.Join(dir, "dyn.pc")},
		{"stats", "-in", filepath.Join(dir, "dynstab.pc")},
		{"stats", "-in", filepath.Join(dir, "two.shards")},
		{"stats", "-serve", "-in", filepath.Join(dir, "two.pc")},
		{"stats", "-serve", "-in", filepath.Join(dir, "dyn.pc")},
	}

	var b strings.Builder
	for _, args := range script {
		fmt.Fprintf(&b, "$ pcindex %s\n", strings.Join(normalize(args, dir, filepath.Dir(ptsCSV)), " "))
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("pcindex %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		b.Write(out)
	}
	got := strings.Join(normalize([]string{b.String()}, dir, filepath.Dir(ptsCSV)), "")

	goldenPath := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (rerun with -update if the change is intended):\n%s",
			goldenPath, diffLines(string(want), got))
	}
}

// normalize rewrites machine-specific directories to stable placeholders.
func normalize(ss []string, workDir, dataDir string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		s = strings.ReplaceAll(s, workDir, "$WORK")
		s = strings.ReplaceAll(s, dataDir, "$DATA")
		out[i] = s
	}
	return out
}

// diffLines renders a minimal line-oriented diff, enough to see what moved.
func diffLines(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var b strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  want: %q\n  got:  %q\n", i+1, w, g)
	}
	return b.String()
}
