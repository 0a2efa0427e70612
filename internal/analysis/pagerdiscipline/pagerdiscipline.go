// Package pagerdiscipline enforces the repository's I/O-accounting contract:
// index structures touch pages only through a disk.Pager — the one they
// were built with, or the op-scoped one a query entry (QueryOn, StabOn,
// SearchOn) is passed by the operation — and never retain aliases of page
// buffers past the read that produced them.
//
// Three families of violations are reported:
//
//  1. Direct *disk.Store or *disk.FileStore page I/O (Read/Write/Alloc/Free)
//     from an index package. Structures hold a disk.Pager; reaching beneath
//     it — for example via a type assertion — bypasses the buffer pool,
//     fault injection, and latency wrappers, so measured I/O counts no
//     longer mean what the theorems assume. Metadata methods (PageSize,
//     Stats, NumPages, ResetStats) stay legal: they transfer no pages.
//     internal/engine is exempt from the FileStore half: its meta page is
//     deliberately written beneath the pager view.
//
//  2. disk.WithCounter applied to a concrete store rather than the
//     structure's disk.Pager. The op counter must observe the same view the
//     structure reads through — wrapping the raw store beneath a buffer
//     pool would bill every access as a transfer, including cache hits the
//     store-level aggregate never sees, so per-operation counts would no
//     longer sum to the store diff.
//
//  3. Escaping aliases of the record slice handed to a disk.ScanChain
//     callback. That slice aliases a single page buffer that is overwritten
//     by the next page read; any copy-free retention (assignment to an outer
//     variable, append of the slice value, storing it in a field, returning
//     it) yields records that silently mutate. The zero-copy record views
//     (record.PointView, record.IntervalView) are typed reslices of the same
//     buffer, so a view — and any byte-slice a view accessor returns — is
//     tracked as an alias too, and a method called on an alias outside the
//     record package is reported: the analyzer cannot prove the receiver is
//     not retained. Decoding out by value (record.DecodePoint,
//     record.PointView(rec).Point(), binary.LittleEndian.Uint64,
//     append(dst, rec...), copy) is the sanctioned way out.
package pagerdiscipline

import (
	"go/ast"
	"go/types"

	"pathcache/internal/analysis"
)

// Analyzer is the pagerdiscipline check.
var Analyzer = &analysis.Analyzer{
	Name: "pagerdiscipline",
	Doc:  "index packages must do all page I/O through their disk.Pager and must not retain page-buffer aliases",
	Run:  run,
}

// storeIOMethods are the *disk.Store methods that transfer or release pages.
var storeIOMethods = map[string]bool{"Read": true, "Write": true, "Alloc": true, "Free": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkStoreBypass(pass, call)
			checkCounterWrap(pass, call)
			checkScanChainCallback(pass, call)
			return true
		})
	}
	return nil
}

// checkStoreBypass flags page I/O invoked on a concrete *disk.Store or
// *disk.FileStore. Calls through the disk.Pager interface resolve to the
// interface method and are not matched. The engine package may drive the
// FileStore directly: the metadata page lives outside the pager view by
// design, and engine is where that exception is implemented.
func checkStoreBypass(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeOf(pass.TypesInfo, call)
	if fn == nil || !storeIOMethods[fn.Name()] {
		return
	}
	named := analysis.RecvNamed(fn)
	if named == nil || !analysis.PkgIs(named.Obj().Pkg(), "internal/disk") {
		return
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return
	}
	switch named.Obj().Name() {
	case "Store":
	case "FileStore":
		if analysis.PkgIs(pass.Pkg, "internal/engine") {
			return
		}
	default:
		return
	}
	pass.Reportf(call.Pos(),
		"direct disk.%s.%s bypasses the structure's Pager: I/O accounting, the buffer pool, and fault injection are all skipped; call through the disk.Pager the structure was built with", named.Obj().Name(), fn.Name())
}

// checkCounterWrap flags disk.WithCounter applied to a concrete store. Op
// attribution must wrap the disk.Pager the structure was built with so the
// counter sees exactly the transfers the store-level aggregate sees; a
// counter strapped onto the raw store beneath a buffer pool also bills
// cache hits, and the per-operation counts stop summing to the store diff.
func checkCounterWrap(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeOf(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "WithCounter" || !analysis.PkgIs(fn.Pkg(), "internal/disk") {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // the pool's WithCounter method wraps an accounted view already
	}
	if len(call.Args) < 1 {
		return
	}
	t := pass.TypesInfo.TypeOf(call.Args[0])
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !analysis.PkgIs(named.Obj().Pkg(), "internal/disk") {
		return
	}
	if name := named.Obj().Name(); name == "Store" || name == "FileStore" {
		pass.Reportf(call.Pos(),
			"disk.WithCounter on a concrete disk.%s: wrap the structure's disk.Pager so the op counter sees the same view (pool included) the store-level stats see", name)
	}
}

// checkScanChainCallback analyzes the func literal passed to disk.ScanChain
// for escaping aliases of the per-record slice.
func checkScanChainCallback(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeOf(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "ScanChain" || !analysis.PkgIs(fn.Pkg(), "internal/disk") {
		return
	}
	if len(call.Args) < 4 {
		return
	}
	lit, ok := ast.Unparen(call.Args[3]).(*ast.FuncLit)
	if !ok {
		return // named callbacks are outside this analyzer's local reasoning
	}
	if len(lit.Type.Params.List) == 0 || len(lit.Type.Params.List[0].Names) == 0 {
		return // parameter unnamed: the record cannot be referenced at all
	}
	recObj := pass.TypesInfo.Defs[lit.Type.Params.List[0].Names[0]]
	if recObj == nil {
		return
	}
	esc := &escapeChecker{pass: pass, lit: lit, aliases: map[types.Object]bool{recObj: true}}
	// Local variables assigned from an alias become aliases themselves;
	// iterate to a fixed point before hunting for escapes.
	for {
		before := len(esc.aliases)
		ast.Inspect(lit.Body, esc.collectAliases)
		if len(esc.aliases) == before {
			break
		}
	}
	ast.Inspect(lit.Body, esc.checkEscapes)
}

// escapeChecker tracks which objects alias the callback's record slice and
// reports uses that let an alias outlive the callback invocation.
type escapeChecker struct {
	pass    *analysis.Pass
	lit     *ast.FuncLit
	aliases map[types.Object]bool
}

// isAlias reports whether e evaluates to a slice aliasing the page buffer:
// the record parameter, a tracked local, a reslice of an alias, or a slice
// conversion of one.
func (c *escapeChecker) isAlias(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return c.aliases[c.pass.TypesInfo.Uses[e]]
	case *ast.SliceExpr:
		return c.isAlias(e.X)
	case *ast.CallExpr:
		// A conversion like []byte(rec) — or to a named view type such as
		// record.PointView — returns the same backing array.
		if len(e.Args) == 1 && c.pass.TypesInfo.Types[e.Fun].IsType() {
			if _, isSlice := c.pass.TypesInfo.TypeOf(e).Underlying().(*types.Slice); isSlice {
				return c.isAlias(e.Args[0])
			}
		}
		// A record-view accessor with a slice result returns a sub-slice of
		// its receiver: still the page buffer.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if fn := analysis.CalleeOf(c.pass.TypesInfo, e); fn != nil &&
				analysis.PkgIs(fn.Pkg(), "internal/record") && analysis.RecvNamed(fn) != nil {
				if _, isSlice := c.pass.TypesInfo.TypeOf(e).Underlying().(*types.Slice); isSlice {
					return c.isAlias(sel.X)
				}
			}
		}
	}
	return false
}

// collectAliases adds locals assigned from an alias expression.
func (c *escapeChecker) collectAliases(n ast.Node) bool {
	asg, ok := n.(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != len(asg.Rhs) {
		return true
	}
	for i, rhs := range asg.Rhs {
		if !c.isAlias(rhs) {
			continue
		}
		if id, ok := asg.Lhs[i].(*ast.Ident); ok {
			obj := c.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = c.pass.TypesInfo.Uses[id]
			}
			if obj != nil && c.declaredInside(obj) {
				c.aliases[obj] = true
			}
		}
	}
	return true
}

// declaredInside reports whether obj is declared within the callback.
func (c *escapeChecker) declaredInside(obj types.Object) bool {
	return obj.Pos() >= c.lit.Pos() && obj.Pos() <= c.lit.End()
}

// allowedCallee permits the calls that copy data out of the record rather
// than retaining it: the binary codecs and the record package's decoders.
func (c *escapeChecker) allowedCallee(call *ast.CallExpr) bool {
	fn := analysis.CalleeOf(c.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	return analysis.PkgIs(fn.Pkg(), "encoding/binary") || analysis.PkgIs(fn.Pkg(), "internal/record")
}

func (c *escapeChecker) report(pos ast.Node, how string) {
	c.pass.Reportf(pos.Pos(),
		"ScanChain record slice aliases a reused page buffer and is overwritten by the next page read: %s; decode or copy the record instead", how)
}

// checkEscapes flags every construct that lets an alias survive the callback.
func (c *escapeChecker) checkEscapes(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i := range n.Rhs {
			if i >= len(n.Lhs) || !c.isAlias(n.Rhs[i]) {
				continue
			}
			switch lhs := n.Lhs[i].(type) {
			case *ast.Ident:
				obj := c.pass.TypesInfo.Defs[lhs]
				if obj == nil {
					obj = c.pass.TypesInfo.Uses[lhs]
				}
				if obj != nil && !c.declaredInside(obj) && lhs.Name != "_" {
					c.report(n, "assigned to variable "+lhs.Name+" declared outside the callback")
				}
			default:
				// Field, element, or pointer target: the alias escapes into
				// a structure that outlives the callback.
				c.report(n, "stored through "+exprString(lhs))
			}
		}
	case *ast.CallExpr:
		if fn, isBuiltin := builtinName(c.pass.TypesInfo, n); isBuiltin {
			switch fn {
			case "append":
				// append(dst, rec...) copies bytes; append(dst, rec) retains
				// the slice value itself.
				for i, arg := range n.Args {
					if !c.isAlias(arg) {
						continue
					}
					if i == len(n.Args)-1 && n.Ellipsis.IsValid() {
						continue
					}
					c.report(arg, "appended as a slice value")
				}
			case "len", "cap", "copy", "clear", "min", "max", "print", "println":
				// Reads only (copy's source position is the sanctioned copy).
			}
			return true
		}
		if c.pass.TypesInfo.Types[n.Fun].IsType() {
			return true // conversions handled via isAlias at their use site
		}
		if c.allowedCallee(n) {
			return true
		}
		// A method invoked on an alias — e.g. a locally defined view type
		// over the record bytes — can retain its receiver just as a call
		// can retain an argument.
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && c.isAlias(sel.X) {
			c.report(sel.X, "receiver of "+exprString(n.Fun)+", which pagerdiscipline cannot prove copies it")
		}
		for _, arg := range n.Args {
			if c.isAlias(arg) {
				c.report(arg, "passed to "+exprString(n.Fun)+", which pagerdiscipline cannot prove copies it")
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if c.isAlias(r) {
				c.report(r, "returned from the callback")
			}
		}
	case *ast.CompositeLit:
		for _, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c.isAlias(el) {
				c.report(el, "stored in a composite literal")
			}
		}
	case *ast.SendStmt:
		if c.isAlias(n.Value) {
			c.report(n.Value, "sent on a channel")
		}
	}
	return true
}

// builtinName reports the builtin a call invokes, if any.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name(), true
	}
	return "", false
}

// exprString renders a short source form of e for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	default:
		return "expression"
	}
}
