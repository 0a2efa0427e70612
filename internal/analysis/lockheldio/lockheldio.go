// Package lockheldio enforces the concurrency contract of the sharded
// buffer pool: a sync.Mutex/RWMutex must not be held across a call that can
// block on pager I/O or on an fsync.
//
// The sharded pool exists so that concurrent readers contend only on the
// shard owning their page. Holding a shard mutex while transferring a page
// through a Pager serializes every other access to that shard behind a
// device-speed operation, and — worse — re-entering the pool from under its own shard lock self-deadlocks. The few
// sites where the pool intentionally fills or writes back a frame under its
// shard latch carry //pcvet:allow lockheldio directives with the design
// justification; everything else is a bug.
//
// The analysis is intra-procedural with one package-local extension: a
// function in the analyzed package that (transitively) performs pager I/O
// taints its callers, so `sh.mu.Lock(); p.insert(...)` is flagged even
// though the Write happens two frames down.
package lockheldio

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"pathcache/internal/analysis"
)

// Analyzer is the lockheldio check.
var Analyzer = &analysis.Analyzer{
	Name: "lockheldio",
	Doc:  "no call may block on pager I/O while a sync.Mutex or sync.RWMutex is held",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// The package-local taint closure: functions whose bodies transitively
	// perform pager I/O, via the shared call-graph summary layer.
	tainted := analysis.NewCallGraph(pass.TypesInfo, pass.Files).Taint(func(call *ast.CallExpr) bool {
		return analysis.IsPagerIO(analysis.CalleeOf(pass.TypesInfo, call)) || isFsync(pass.TypesInfo, call)
	})
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, tainted: tainted}
			w.stmts(fd.Body.List, lockSet{})
		}
	}
	return nil
}

// lockSet maps a lock's receiver expression (printed form) to the method
// that acquired it: "Lock", or "RLock" for the read side of a RWMutex.
type lockSet map[string]string

func (ls lockSet) clone() lockSet {
	c := make(lockSet, len(ls))
	for k, v := range ls {
		c[k] = v
	}
	return c
}

// describe names the held locks with their acquiring methods, in order, for
// the diagnostic: "t.mu.RLock is held" names a read lock.
func (ls lockSet) describe() string {
	names := make([]string, 0, len(ls))
	for k, m := range ls {
		names = append(names, k+"."+m)
	}
	sort.Strings(names)
	if len(names) == 1 {
		return names[0] + " is held"
	}
	return strings.Join(names, " and ") + " are held"
}

// lockWalker tracks held mutexes through a statement list. Branches are
// walked with a copy of the state; the straight-line state only changes at
// Lock/Unlock calls, which matches the repository's lock discipline
// (acquire, work, release — optionally via defer, which keeps the lock to
// function end and is modeled by simply never removing it).
type lockWalker struct {
	pass    *analysis.Pass
	tainted map[*types.Func]bool
}

func (w *lockWalker) stmts(list []ast.Stmt, held lockSet) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held lockSet) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, held)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() releases at return; the lock stays held for the
		// remainder, which is exactly what not removing it models. A
		// deferred I/O call still runs with any still-held locks.
		if w.lockOp(s.Call) == opNone {
			w.expr(s.Call, held)
		}
	case *ast.GoStmt:
		// The goroutine does not inherit the caller's locks.
		w.expr(s.Call, lockSet{})
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, held.clone())
		if s.Else != nil {
			w.stmt(s.Else, held.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		body := held.clone()
		w.stmts(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.stmts(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, held.clone())
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, held.clone())
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CommClause).Body, held.clone())
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held.clone())
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	}
}

type lockOp int

const (
	opNone lockOp = iota
	opLock
	opRLock
	opUnlock
)

// lockOp classifies a call as acquiring or releasing a sync mutex.
func (w *lockWalker) lockOp(call *ast.CallExpr) lockOp {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		op = opLock
	case "RLock", "TryRLock":
		op = opRLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return opNone
	}
	t := w.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return opNone
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return opNone
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex", "Locker":
		return op
	}
	return opNone
}

// expr walks an expression in evaluation order, updating held at
// Lock/Unlock calls and flagging pager I/O performed while held.
func (w *lockWalker) expr(e ast.Expr, held lockSet) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal's body runs when called, not here; analyze it as an
			// independent function.
			w.stmts(n.Body.List, lockSet{})
			return false
		case *ast.CallExpr:
			sel, _ := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			switch w.lockOp(n) {
			case opLock:
				held[exprKey(sel.X)] = "Lock"
				return true
			case opRLock:
				held[exprKey(sel.X)] = "RLock"
				return true
			case opUnlock:
				delete(held, exprKey(sel.X))
				return true
			}
			if len(held) == 0 {
				return true
			}
			callee := analysis.CalleeOf(w.pass.TypesInfo, n)
			switch {
			case analysis.IsPagerIO(callee):
				w.pass.Reportf(n.Pos(),
					"%s performs pager I/O while %s: a blocked page transfer serializes every access to this lock (and re-entering the pool self-deadlocks); release the lock first or justify with %s lockheldio",
					calleeName(callee), held.describe(), analysis.DirectivePrefix)
			case isFsync(w.pass.TypesInfo, n):
				w.pass.Reportf(n.Pos(),
					"%s fsyncs while %s: every access to this lock waits out the device flush; release the lock first or justify with %s lockheldio",
					exprKey(n.Fun), held.describe(), analysis.DirectivePrefix)
			case callee != nil && w.tainted[callee]:
				w.pass.Reportf(n.Pos(),
					"call to %s, which performs pager I/O or an fsync, while %s; release the lock around the I/O or justify with %s lockheldio",
					calleeName(callee), held.describe(), analysis.DirectivePrefix)
			}
		}
		return true
	})
}

// isFsync reports a call through a func-valued field named Sync: the
// write tier reaches its fsync through such a config hook (t.cfg.Sync),
// which the type checker cannot resolve to the disk method behind it.
func isFsync(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sync" {
		return false
	}
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

func calleeName(fn *types.Func) string {
	if fn == nil {
		return "call"
	}
	if named := analysis.RecvNamed(fn); named != nil {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// exprKey renders the lock receiver for the held-set key.
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprKey(e.X) + "[i]"
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		return exprKey(e.X)
	default:
		return "mutex"
	}
}
