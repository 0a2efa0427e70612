// Package analysistest runs an analyzer over a fixture package and checks
// its diagnostics against // want annotations, mirroring the x/tools
// package of the same name with only the standard library.
//
// A fixture line expecting diagnostics carries one or more quoted regular
// expressions:
//
//	sink = rec // want `aliases a reused page buffer`
//	_ = p.store.Write(id, buf) // want "dropped" "second finding"
//
// A //pcvet:allow directive fills its whole line comment, so a finding
// reported at the directive itself is expected by a want trailing it:
//
//	//pcvet:allow lockheldio(mu.RLock) -- reason // want `suppresses no finding`
//
// Every want must be matched by a diagnostic on its line and every
// diagnostic must be matched by a want, or the test fails.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pathcache/internal/analysis"
	"pathcache/internal/analysis/load"
)

// Run loads the fixture package in dir, applies the analyzers, and verifies
// the diagnostics against the fixture's // want comments. It returns the
// diagnostics for any further assertions.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	pkg, err := load.Dir(dir, "")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.Run(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}

	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatal(err)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic [%s]: %s", pos, d.Analyzer, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	return diags
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRx matches one quoted expectation: a Go string or backquote literal.
var wantRx = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants parses // want comments from every fixture file.
func collectWants(pkg *analysis.Package) ([]want, error) {
	var out []want
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, found := strings.CutPrefix(c.Text, "// want ")
				if !found {
					text, found = strings.CutPrefix(c.Text, "//want ")
				}
				if !found && strings.HasPrefix(c.Text, analysis.DirectivePrefix) {
					_, text, found = strings.Cut(c.Text, " // want ")
				}
				if !found {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				quoted := wantRx.FindAllString(text, -1)
				if len(quoted) == 0 {
					return nil, fmt.Errorf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, q := range quoted {
					pat, err := unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", pos, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern: %w", pos, err)
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out, nil
}

func unquote(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	return strconv.Unquote(q)
}

// NoDiagnostics asserts the analyzers stay silent on the fixture in dir —
// used for the “good” fixtures that exercise the sanctioned patterns.
func NoDiagnostics(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkg, err := load.Dir(dir, "")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.Run(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	for _, d := range diags {
		t.Errorf("%s: unexpected diagnostic [%s]: %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
