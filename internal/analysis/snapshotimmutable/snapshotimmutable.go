// Package snapshotimmutable enforces copy-on-write on fields marked
// //pcvet:snapshot. The LSM tier's writers, holding only their writer lock,
// build the next version from such a field while readers under the version
// lock's read side still read the published one (a query ranges t.levels
// for its whole run); that is only sound if the value behind the field is
// never mutated in place — writers must build a fresh value and install it
// with one wholesale field assignment.
//
// The analysis taints every read of a marked field and propagates the
// taint flow-insensitively through the function: local assignments, range
// bindings, indexing, slicing, field selection and dereference all carry
// it. A mutation of a tainted value is the violation: a store through an
// index/selector/dereference, delete, append or copy with a tainted
// destination, sort of a tainted slice, or passing a tainted value to a
// package-local function that mutates the corresponding parameter (the
// call-graph summary). Wholesale assignment to the marked field itself is
// the sanctioned install and is not flagged.
//
// Known holes, accepted for signal: method calls on tainted receivers are
// not summarized (bloom probes and tree queries on snapshot levels are
// read-only by design), and an explicit copy() out of a snapshot launders
// the taint — which is exactly the copy-on-write idiom the check exists to
// push code toward.
package snapshotimmutable

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pathcache/internal/analysis"
)

// Analyzer is the snapshotimmutable check.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotimmutable",
	Doc:  "values reached from //pcvet:snapshot fields must not be mutated in place (copy-on-write)",
	Run:  run,
}

// Marker tags a struct field whose value is published as a lock-free
// snapshot.
const Marker = "//pcvet:snapshot"

func run(pass *analysis.Pass) error {
	marked := markedFields(pass)
	if len(marked) == 0 {
		return nil
	}
	cg := analysis.NewCallGraph(pass.TypesInfo, pass.Files)
	c := &checker{pass: pass, cg: cg, marked: marked, mutates: map[*types.Func][]bool{}}
	c.summarize()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				for _, m := range c.analyze(fd, nil) {
					c.pass.Reportf(m.pos(), "%s %s, which is derived from a %s field; build a fresh value and install it wholesale, or justify with %s snapshotimmutable",
						m.verb, m.what, Marker, analysis.DirectivePrefix)
				}
			}
		}
	}
	return nil
}

// markedFields collects the struct fields carrying the snapshot marker on
// their own line or the line above.
func markedFields(pass *analysis.Pass) map[*types.Var]bool {
	marked := map[*types.Var]bool{}
	for _, f := range pass.Files {
		lines := map[int]bool{}
		for _, cg := range f.Comments {
			for _, cmt := range cg.List {
				if strings.HasPrefix(cmt.Text, Marker) {
					lines[pass.Fset.Position(cmt.Pos()).Line] = true
				}
			}
		}
		if len(lines) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				line := pass.Fset.Position(field.Pos()).Line
				if !lines[line] && !lines[line-1] {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						marked[v] = true
					}
				}
			}
			return true
		})
	}
	return marked
}

type checker struct {
	pass   *analysis.Pass
	cg     *analysis.CallGraph
	marked map[*types.Var]bool
	// mutates[fn][i] reports that fn mutates (in the snapshot sense) the
	// value passed as its i-th parameter.
	mutates map[*types.Func][]bool
}

// summarize computes the param-mutation fixpoint over the package's
// declarations: a parameter is mutated if the body mutates a value derived
// from it, directly or by forwarding it to another mutating local function.
func (c *checker) summarize() {
	for fn, fd := range c.cg.Decls {
		c.mutates[fn] = make([]bool, numParams(fd))
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range c.cg.Decls {
			for i := range c.mutates[fn] {
				if c.mutates[fn][i] {
					continue
				}
				if v := paramVar(c.pass.TypesInfo, fd, i); v != nil && len(c.analyze(fd, v)) > 0 {
					c.mutates[fn][i] = true
					changed = true
				}
			}
		}
	}
}

func numParams(fd *ast.FuncDecl) int {
	n := 0
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}

// paramVar returns the object of fd's i-th named parameter.
func paramVar(info *types.Info, fd *ast.FuncDecl, i int) *types.Var {
	idx := 0
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if idx == i {
				v, _ := info.Defs[name].(*types.Var)
				return v
			}
			idx++
		}
		if len(f.Names) == 0 {
			idx++
		}
	}
	return nil
}

// mutation is one in-place write to a snapshot-derived value.
type mutation struct {
	node ast.Node
	verb string // "store into", "delete from", ...
	what string // rendered target expression
}

func (m mutation) pos() token.Pos { return m.node.Pos() }

// analyze walks fd with taint seeded either from the marked fields (seed ==
// nil: the reporting pass) or from one parameter (the summary pass, which
// ignores the marked fields so a summary reflects the parameter alone), and
// returns the mutations of tainted values.
func (c *checker) analyze(fd *ast.FuncDecl, seed *types.Var) []mutation {
	e := &taintEnv{
		info:   c.pass.TypesInfo,
		marked: c.marked,
		local:  map[types.Object]bool{},
		seed:   seed,
	}
	if seed != nil {
		e.local[seed] = true
	}
	// Taint fixpoint over local bindings: x := tainted, x = tainted, and
	// range bindings over a tainted operand.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					if rhs != nil && e.tainted(rhs) && !e.taintIdent(id) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				if e.tainted(n.X) {
					for _, b := range []ast.Expr{n.Key, n.Value} {
						if id, ok := b.(*ast.Ident); ok && !e.taintIdent(id) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}

	var muts []mutation
	add := func(n ast.Node, verb string, what ast.Expr) {
		muts = append(muts, mutation{node: n, verb: verb, what: render(what)})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if target, ok := e.mutatedStore(lhs); ok {
					add(lhs, "store into", target)
				}
			}
		case *ast.IncDecStmt:
			if target, ok := e.mutatedStore(n.X); ok {
				add(n, "increment of", target)
			}
		case *ast.CallExpr:
			c.checkCall(e, n, add)
		}
		return true
	})
	return muts
}

// checkCall flags the call forms that mutate a tainted argument.
func (c *checker) checkCall(e *taintEnv, call *ast.CallExpr, add func(ast.Node, string, ast.Expr)) {
	if len(call.Args) > 0 {
		switch name := analysis.CallName(call); name {
		case "delete":
			if isBuiltin(e.info, call) && e.tainted(call.Args[0]) {
				add(call, "delete from", call.Args[0])
				return
			}
		case "append", "copy":
			if isBuiltin(e.info, call) && e.tainted(call.Args[0]) {
				add(call, name+" to", call.Args[0])
				return
			}
		}
	}
	fn := analysis.CalleeOf(e.info, call)
	if fn == nil {
		return
	}
	// The sort package rearranges its argument in place.
	if analysis.PkgIs(fn.Pkg(), "sort") && len(call.Args) > 0 && e.tainted(call.Args[0]) {
		add(call, "in-place sort of", call.Args[0])
		return
	}
	if local := c.cg.LocalCallee(call); local != nil {
		summ := c.mutates[local]
		for i, arg := range call.Args {
			if i < len(summ) && summ[i] && e.tainted(arg) {
				add(call, "call mutating", arg)
			}
		}
	}
}

func isBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// taintEnv answers "does this expression derive from the snapshot?".
type taintEnv struct {
	info   *types.Info
	marked map[*types.Var]bool
	local  map[types.Object]bool
	seed   *types.Var // non-nil in summary mode: marked fields are ignored
}

// taintIdent marks an identifier's object tainted, reporting whether it
// already was.
func (e *taintEnv) taintIdent(id *ast.Ident) bool {
	obj := e.info.Defs[id]
	if obj == nil {
		obj = e.info.Uses[id]
	}
	if obj == nil || e.local[obj] {
		return true
	}
	e.local[obj] = true
	return false
}

func (e *taintEnv) tainted(x ast.Expr) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		obj := e.info.Uses[x]
		return obj != nil && e.local[obj]
	case *ast.SelectorExpr:
		if e.seed == nil {
			if v, ok := e.info.Uses[x.Sel].(*types.Var); ok && e.marked[v] {
				return true
			}
		}
		return e.tainted(x.X)
	case *ast.IndexExpr:
		return e.tainted(x.X)
	case *ast.SliceExpr:
		return e.tainted(x.X)
	case *ast.StarExpr:
		return e.tainted(x.X)
	case *ast.CallExpr:
		// append(tainted, ...) aliases the tainted backing array.
		if name := analysis.CallName(x); name == "append" && isBuiltin(e.info, x) && len(x.Args) > 0 {
			return e.tainted(x.Args[0])
		}
	}
	return false
}

// mutatedStore reports whether lhs writes through a tainted value: an
// element, field or pointee store. A wholesale store to the marked field
// itself (base untainted) is the copy-on-write install and returns false.
func (e *taintEnv) mutatedStore(lhs ast.Expr) (ast.Expr, bool) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		if e.tainted(l.X) {
			return l.X, true
		}
	case *ast.StarExpr:
		if e.tainted(l.X) {
			return l.X, true
		}
	case *ast.SelectorExpr:
		if e.tainted(l.X) {
			return l.X, true
		}
	}
	return nil, false
}

// render prints a target expression compactly for the diagnostic.
func render(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return render(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return render(x.X) + "[...]"
	case *ast.SliceExpr:
		return render(x.X) + "[:]"
	case *ast.StarExpr:
		return "*" + render(x.X)
	case *ast.CallExpr:
		return render(x.Fun) + "(...)"
	}
	return "value"
}
