package main

import (
	"path"
	"strings"

	"pathcache/internal/analysis"
	"pathcache/internal/analysis/commitprotocol"
	"pathcache/internal/analysis/durabilityorder"
	"pathcache/internal/analysis/errwrapinjected"
	"pathcache/internal/analysis/fixedwidth"
	"pathcache/internal/analysis/lockheldio"
	"pathcache/internal/analysis/obsdiscipline"
	"pathcache/internal/analysis/pagerdiscipline"
	"pathcache/internal/analysis/snapshotimmutable"
)

// Scoping: which analyzers run on which packages. The conventions are
// layer-specific — pagerdiscipline polices the index structures above the
// disk layer (the disk package itself is the accounting implementation),
// lockheldio polices the lock-striped pool, the write tier's locks and the
// batch fan-out, fixedwidth
// polices record encoders, and errwrapinjected applies everywhere
// production code runs.

// indexPackages are the structure packages that must do all page I/O
// through their Pager. internal/engine rides along: it assembles the pager
// stack and hands out op-counted views, so the same discipline applies
// (its sanctioned FileStore meta I/O is exempted inside the analyzer).
var indexPackages = []string{
	"internal/engine",
	"internal/extpst",
	"internal/ext3side",
	"internal/extseg",
	"internal/extint",
	"internal/extwindow",
	"internal/btree",
	"internal/skeletal",
	"internal/logmethod",
	"internal/lsm",
	"internal/dynpst",
	"internal/dyn3side",
	"internal/pstcore",
	"internal/inmem",
	"internal/shard",
}

// encoderPackages hold fixed-width record layouts or node-payload encoders.
var encoderPackages = append([]string{"internal/record", "internal/disk"}, indexPackages...)

// lockPackages hold the sharded pool, the write tier (whose version lock
// must never be held exclusively across I/O), the parallel batch engine,
// and the serving layer (whose snapshot handles and admission gates must
// never hold a lock across store I/O). The bare module path is the root
// pathcache package (batch.go, handle.go).
var lockPackages = []string{"internal/disk", "internal/lsm", "internal/server", "internal/shard", "pathcache"}

// obsExempt are the sanctioned metric-recording seams; obsdiscipline runs
// on every other package (the analyzer also self-gates, so the fixture
// packages still exercise it).
var obsExempt = []string{"internal/obs", "internal/engine", "pathcache"}

// durabilityPackages hold the WAL: durabilityorder polices the
// append -> fsync -> ack ordering where acknowledged writes live.
var durabilityPackages = []string{"internal/lsm"}

// commitPackages flip metadata heads: the write-all-new -> flip -> free-old
// discipline applies wherever a commit point is published.
var commitPackages = []string{"internal/lsm", "internal/disk", "internal/engine", "internal/shard"}

// snapshotPackages declare //pcvet:snapshot fields (the marker is
// package-local, so the analyzer only has teeth where the fields live).
var snapshotPackages = []string{"internal/lsm", "internal/shard"}

// analyzersFor selects the analyzers for importPath. Fixture packages run
// the analyzer their name starts with, or every analyzer when none matches,
// so the multichecker can be pointed at any fixture directly.
func analyzersFor(importPath string) []*analysis.Analyzer {
	if name, ok := fixtureName(importPath); ok {
		var matched []*analysis.Analyzer
		for _, a := range all {
			if strings.HasPrefix(name, a.Name) {
				matched = append(matched, a)
			}
		}
		if len(matched) > 0 {
			return matched
		}
		return all
	}

	var out []*analysis.Analyzer
	if matchesAny(importPath, indexPackages) {
		out = append(out, pagerdiscipline.Analyzer)
	}
	if matchesAny(importPath, lockPackages) {
		out = append(out, lockheldio.Analyzer)
	}
	if matchesAny(importPath, encoderPackages) {
		out = append(out, fixedwidth.Analyzer)
	}
	if !matchesAny(importPath, obsExempt) {
		out = append(out, obsdiscipline.Analyzer)
	}
	out = append(out, errwrapinjected.Analyzer)
	if matchesAny(importPath, durabilityPackages) {
		out = append(out, durabilityorder.Analyzer)
	}
	if matchesAny(importPath, commitPackages) {
		out = append(out, commitprotocol.Analyzer)
	}
	if matchesAny(importPath, snapshotPackages) {
		out = append(out, snapshotimmutable.Analyzer)
	}
	return out
}

// fixtureName recognizes analyzer test fixtures: packages under a testdata
// tree, or bare single-segment paths (a fixture directory loaded from
// outside the module).
func fixtureName(importPath string) (string, bool) {
	if strings.Contains(importPath, "testdata/") {
		return path.Base(importPath), true
	}
	if !strings.Contains(importPath, "/") && importPath != "pathcache" {
		return importPath, true
	}
	return "", false
}

func matchesAny(importPath string, pkgs []string) bool {
	for _, p := range pkgs {
		if importPath == p || strings.HasSuffix(importPath, "/"+p) || p == "pathcache" && importPath == "pathcache" {
			return true
		}
	}
	return false
}
