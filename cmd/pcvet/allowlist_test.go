package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/allowlist.golden from the current tree")

// TestAllowlist pins the suppression report: every //pcvet:allow in the
// production tree, with file:line, analyzer and justification. A new or
// moved directive shows up as a golden diff — the reviewable artifact the
// CI step publishes. Regenerate with: go test ./cmd/pcvet -run Allowlist -update
func TestAllowlist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pcvet binary")
	}
	bin := buildPcvet(t)
	root := repoRoot(t)

	t.Run("Golden", func(t *testing.T) {
		cmd := exec.Command(bin, "allowlist", "./...")
		cmd.Dir = root
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("pcvet allowlist ./...: %v\nstderr:\n%s", err, stderr.String())
		}
		golden := filepath.Join("testdata", "allowlist.golden")
		if *update {
			if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("reading golden (run with -update to create): %v", err)
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("suppression report drifted from testdata/allowlist.golden (re-run with -update if intended)\n got:\n%s\nwant:\n%s", got, want)
		}
	})

	// Each malformed fixture must fail the report with exit 2 and say why.
	malformed := func(t *testing.T, fixture, want string) {
		cmd := exec.Command(bin, "allowlist", filepath.Join("cmd", "pcvet", "testdata", fixture))
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("allowlist on %s: want exit 2, got %v\nstderr:\n%s", fixture, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
	t.Run("MissingReasonFails", func(t *testing.T) {
		malformed(t, "allowlist_badreason", "suppression without justification")
	})
	t.Run("BareLockheldioFails", func(t *testing.T) {
		malformed(t, "allowlist_bare", "must name the lock set it excuses")
	})
}
