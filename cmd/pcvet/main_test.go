package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildPcvet compiles the multichecker into a temp dir and returns its path.
func buildPcvet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pcvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pcvet: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestMultichecker drives the built binary end to end: a violation fixture
// must fail with exit 2 and named findings, and the repository tree must be
// clean — the property CI enforces.
func TestMultichecker(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pcvet binary")
	}
	bin := buildPcvet(t)
	root := repoRoot(t)

	t.Run("FixtureFails", func(t *testing.T) {
		fixture := filepath.Join("internal", "analysis", "lockheldio", "testdata", "src", "lockheldio_bad")
		cmd := exec.Command(bin, fixture)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("pcvet %s: want exit 2, got %v\nstderr:\n%s", fixture, err, stderr.String())
		}
		for _, frag := range []string{
			"[lockheldio]",
			"performs pager I/O while",
			"which performs pager I/O",
		} {
			if !strings.Contains(stderr.String(), frag) {
				t.Errorf("stderr missing %q:\n%s", frag, stderr.String())
			}
		}
	})

	// The durability analyzers ride the same binary: each bad fixture must
	// fail through the multichecker exactly as it does under analysistest.
	for _, tc := range []struct {
		analyzer string
		frag     string
	}{
		{"durabilityorder", "acknowledges a WAL append with no fsync barrier"},
		{"commitprotocol", "freed with no commit flip"},
		{"snapshotimmutable", "derived from a //pcvet:snapshot field"},
	} {
		t.Run("FixtureFails/"+tc.analyzer, func(t *testing.T) {
			fixture := filepath.Join("internal", "analysis", tc.analyzer, "testdata", "src", tc.analyzer+"_bad")
			cmd := exec.Command(bin, fixture)
			cmd.Dir = root
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("pcvet %s: want exit 2, got %v\nstderr:\n%s", fixture, err, stderr.String())
			}
			for _, frag := range []string{"[" + tc.analyzer + "]", tc.frag} {
				if !strings.Contains(stderr.String(), frag) {
					t.Errorf("stderr missing %q:\n%s", frag, stderr.String())
				}
			}
		})
	}

	// A directive that excuses no finding fails the run like a finding.
	t.Run("FixtureFails/unusedallow", func(t *testing.T) {
		fixture := filepath.Join("internal", "analysis", "testdata", "src", "unusedallow_bad")
		cmd := exec.Command(bin, fixture)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("pcvet %s: want exit 2, got %v\nstderr:\n%s", fixture, err, stderr.String())
		}
		if want := "bad.go:22:2: [pcvet] pcvet:allow lockheldio(s.mu.Lock) suppresses no finding"; !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	})

	t.Run("RepoTreeClean", func(t *testing.T) {
		cmd := exec.Command(bin, "./...")
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("pcvet ./... should be clean, got %v\nstderr:\n%s", err, stderr.String())
		}
	})

	t.Run("Vettool", func(t *testing.T) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./internal/record", "./internal/disk")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go vet -vettool: %v\n%s", err, out)
		}
	})
}
