package analysis_test

import (
	"testing"

	"pathcache/internal/analysis/analysistest"
	"pathcache/internal/analysis/errwrapinjected"
	"pathcache/internal/analysis/lockheldio"
)

// TestUnusedAllow pins that a //pcvet:allow excusing no finding of an
// analyzer that ran is itself a finding, reported at the directive.
func TestUnusedAllow(t *testing.T) {
	analysistest.Run(t, "testdata/src/unusedallow_bad", lockheldio.Analyzer, errwrapinjected.Analyzer)
}

// TestUsedAllow pins the directives that stay silent: each excuses a
// finding, or names an analyzer that did not run.
func TestUsedAllow(t *testing.T) {
	analysistest.NoDiagnostics(t, "testdata/src/unusedallow_good", lockheldio.Analyzer, errwrapinjected.Analyzer)
}
