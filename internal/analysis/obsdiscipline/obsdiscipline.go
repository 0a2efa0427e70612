// Package obsdiscipline protects the metric-recording seams of the
// observability layer: a store's obs.Registry is owned by its
// engine.Backend, and only the sanctioned recording layers — internal/obs
// itself, internal/engine, and the pathcache root package (its one op
// recorder, which every serial, batch and LSM operation runs through, and
// recordBuild) — may record operations into it or reconfigure it.
//
// Everywhere else, three constructs are reported:
//
//  1. Calls to the Registry mutators (Begin, End, Reset, SetStrict,
//     SetLimits, SetTracer). An index or tool that records its own ops
//     beneath the public API breaks the invariant the test suite pins:
//     per-op histogram sums equal the store-level Stats diff. Ops must be
//     recorded by the public layer, which routes their I/O through an
//     op-scoped counter at the same time.
//
//  2. obs.NewRegistry. A second registry silently absorbs recordings the
//     store's own Metrics() snapshot never shows.
//
//  3. Composite literals of obs.Registry, which skip NewRegistry entirely.
//
// The read-only surface (Snapshot, Inflight, Strict, Limits) and the
// standalone primitives (Counter, Gauge, Histogram) stay legal anywhere —
// the bench harness aggregates its own samples with obs.Histogram by
// design.
package obsdiscipline

import (
	"go/ast"
	"go/types"

	"pathcache/internal/analysis"
)

// Analyzer is the obsdiscipline check.
var Analyzer = &analysis.Analyzer{
	Name: "obsdiscipline",
	Doc:  "obs.Registry is mutated only through the sanctioned recording seams (internal/obs, internal/engine, the pathcache root)",
	Run:  run,
}

// mutators are the *obs.Registry methods that record operations or change
// recording configuration. The read-only accessors are not listed.
var mutators = map[string]bool{
	"Begin": true, "End": true, "Reset": true,
	"SetStrict": true, "SetLimits": true, "SetTracer": true,
}

// exempt reports whether pkg is a sanctioned recording layer. The root
// pathcache package is the public recording seam; internal/engine owns
// each store's registry; internal/obs is the implementation.
func exempt(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return analysis.PkgIs(pkg, "internal/obs") ||
		analysis.PkgIs(pkg, "internal/engine") ||
		pkg.Path() == "pathcache"
}

func run(pass *analysis.Pass) error {
	if exempt(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.CompositeLit:
				checkLiteral(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCall flags Registry mutator calls and NewRegistry itself.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeOf(pass.TypesInfo, call)
	if fn == nil || !analysis.PkgIs(fn.Pkg(), "internal/obs") {
		return
	}
	if named := analysis.RecvNamed(fn); named != nil {
		if named.Obj().Name() == "Registry" && mutators[fn.Name()] {
			pass.Reportf(call.Pos(),
				"obs.Registry.%s outside the recording seams: only internal/obs, internal/engine and the pathcache root may record or reconfigure metric series, or the per-op histogram sums stop matching the store-level Stats diff; route the operation through the public index API", fn.Name())
		}
		return
	}
	if fn.Name() == "NewRegistry" {
		pass.Reportf(call.Pos(),
			"obs.NewRegistry outside internal/engine: every store's registry is owned by its engine.Backend — a second registry absorbs recordings Metrics() never shows; reach the store's registry via Backend.Obs()")
	}
}

// checkLiteral flags obs.Registry composite literals, which would bypass
// NewRegistry.
func checkLiteral(pass *analysis.Pass, lit *ast.CompositeLit) {
	t := pass.TypesInfo.TypeOf(lit)
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	if named.Obj().Name() == "Registry" && analysis.PkgIs(named.Obj().Pkg(), "internal/obs") {
		pass.Reportf(lit.Pos(),
			"constructing obs.Registry with a composite literal bypasses NewRegistry; reach the store's registry via Backend.Obs()")
	}
}
