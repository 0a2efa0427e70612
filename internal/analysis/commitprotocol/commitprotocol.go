// Package commitprotocol enforces the write-all-new -> flip -> free-old
// commit discipline of the storage stack. The flip — publishing new state
// by writing the metadata head (SetAppHead, SaveMeta, ReplaceMeta) or
// committing a manifest blob (cfg.Commit) — is the single atomic point a
// crash pivots on. Two orderings around it are load-bearing:
//
//   - No page may be freed before the flip. Free destroys page content and
//     recycles the ID; a crash after an early free leaves the still-live
//     old metadata pointing at corrupt or reused pages.
//
//   - No new-chain page may be written after the flip. The flipped metadata
//     references those pages, so they must be durable (written, then synced
//     by the flip path) before it becomes visible.
//
// The analysis runs on functions that contain a flip (directly or through
// a package-local wrapper like Tree.commit). A free must be dominated by
// some flip — on every path from the entry, a flip already happened; a
// write must not be reachable from any flip. Sync and Flush are
// deliberately not writes: the engine syncs after SetAppHead by design
// (the flip itself must reach the platter).
package commitprotocol

import (
	"go/ast"
	"go/types"

	"pathcache/internal/analysis"
	"pathcache/internal/analysis/cfg"
)

// Analyzer is the commitprotocol check.
var Analyzer = &analysis.Analyzer{
	Name: "commitprotocol",
	Doc:  "commit flips must follow every new-chain write and precede every free of superseded pages",
	Run:  run,
}

// flipNames are the terminal identifiers that publish new state. Matched by
// name so calls through func-valued config fields (cfg.Commit) and
// cross-package engine methods both count.
var flipNames = map[string]bool{
	"SetAppHead": true, "SaveMeta": true, "ReplaceMeta": true, "Commit": true,
}

// freeNames / writeNames classify disk-package I/O (methods and package
// funcs) into the two ordered classes. WriteBlob and WriteCommitted are the
// metadata codec's chain writers (a manifest, a shard map, a bloom filter).
// Read, ScanChain, ReadBlob, ReadCommitted, Sync and Flush are in neither:
// reading old state and syncing around the flip are legal on both sides.
var freeNames = map[string]bool{
	"Free": true, "FreeChain": true,
}
var writeNames = map[string]bool{
	"Write": true, "Alloc": true, "Append": true, "Close": true,
	"WriteChain": true, "NewChainWriter": true, "NewChainAppender": true,
	"WriteBlob": true, "WriteCommitted": true,
}

func run(pass *analysis.Pass) error {
	cg := analysis.NewCallGraph(pass.TypesInfo, pass.Files)
	flipFns := cg.Taint(func(call *ast.CallExpr) bool {
		return flipNames[analysis.CallName(call)]
	})
	freeFns := cg.Taint(func(call *ast.CallExpr) bool {
		return classifyIO(pass.TypesInfo, call) == evFree
	})
	writeFns := cg.Taint(func(call *ast.CallExpr) bool {
		return classifyIO(pass.TypesInfo, call) == evWrite
	})
	c := &checker{pass: pass, cg: cg, flipFns: flipFns, freeFns: freeFns, writeFns: writeFns}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.check(fd)
			}
		}
	}
	return nil
}

const (
	evNone = iota
	evFlip
	evFree
	evWrite
)

// classifyIO classifies a resolved disk-package I/O call, ignoring local
// and unresolvable callees (handled via the call graph and flip names).
func classifyIO(info *types.Info, call *ast.CallExpr) int {
	fn := analysis.CalleeOf(info, call)
	if fn == nil || !analysis.PkgIs(fn.Pkg(), "internal/disk") {
		return evNone
	}
	switch {
	case freeNames[fn.Name()]:
		return evFree
	case writeNames[fn.Name()]:
		return evWrite
	}
	return evNone
}

type checker struct {
	pass     *analysis.Pass
	cg       *analysis.CallGraph
	flipFns  map[*types.Func]bool
	freeFns  map[*types.Func]bool
	writeFns map[*types.Func]bool
}

// event is one ordered call: its block, its ordinal within the block's
// event sequence, and its class.
type event struct {
	call  *ast.CallExpr
	kind  int
	block *cfg.Block
	ord   int
}

func (c *checker) check(fd *ast.FuncDecl) {
	g := cfg.New(fd.Body)
	var flips, frees, writes []event
	for _, b := range g.Blocks {
		ord := 0
		for _, n := range b.Nodes {
			ast.Inspect(n, func(nd ast.Node) bool {
				if _, ok := nd.(*ast.FuncLit); ok {
					return false // a literal's body is its own function
				}
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, kind := range c.classify(call) {
					e := event{call: call, kind: kind, block: b, ord: ord}
					ord++
					switch kind {
					case evFlip:
						flips = append(flips, e)
					case evFree:
						frees = append(frees, e)
					case evWrite:
						writes = append(writes, e)
					}
				}
				return true
			})
		}
	}
	if len(flips) == 0 {
		return // no commit point: ordering is some caller's concern
	}

	dom := g.Dominators()
	for _, f := range frees {
		if !dominatedByAny(dom, flips, f) {
			c.pass.Reportf(f.call.Pos(),
				"page freed with no commit flip on some path from the entry: Free destroys content the still-live old metadata references; flip first, or justify with %s commitprotocol",
				analysis.DirectivePrefix)
		}
	}
	for _, w := range writes {
		if reachableFromAny(g, flips, w) {
			c.pass.Reportf(w.call.Pos(),
				"new-chain write reachable after a commit flip: every page the flipped metadata references must be written before the flip publishes it; reorder, or justify with %s commitprotocol",
				analysis.DirectivePrefix)
		}
	}
}

// classify maps a call to its ordered classes. A local callee can both
// free and write; a flip-tainted callee is a flip only (its internal
// ordering is checked at its own declaration).
func (c *checker) classify(call *ast.CallExpr) []int {
	if flipNames[analysis.CallName(call)] {
		return []int{evFlip}
	}
	if local := c.cg.LocalCallee(call); local != nil {
		if c.flipFns[local] {
			return []int{evFlip}
		}
		var kinds []int
		if c.freeFns[local] {
			kinds = append(kinds, evFree)
		}
		if c.writeFns[local] {
			kinds = append(kinds, evWrite)
		}
		return kinds
	}
	if k := classifyIO(c.pass.TypesInfo, call); k != evNone {
		return []int{k}
	}
	return nil
}

// dominatedByAny reports whether some flip happens-before e on every path:
// an earlier event in the same block, or a flip whose block dominates e's.
func dominatedByAny(dom *cfg.Dominators, flips []event, e event) bool {
	for _, p := range flips {
		if p.block == e.block {
			if p.ord < e.ord {
				return true
			}
			continue
		}
		if dom.Dominates(p.block, e.block) {
			return true
		}
	}
	return false
}

// reachableFromAny reports whether some flip can happen before e on any
// path: an earlier event in the same block, or a flip whose block reaches
// e's block.
func reachableFromAny(g *cfg.Graph, flips []event, e event) bool {
	for _, p := range flips {
		if p.block == e.block && p.ord < e.ord {
			return true
		}
		// Distinct blocks, or the same block on a cycle (a later event
		// reaches an earlier one through the back edge).
		if (p.block != e.block || g.Reachable(p.block, p.block)) && g.Reachable(p.block, e.block) {
			return true
		}
	}
	return false
}
