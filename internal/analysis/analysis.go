// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough framework to write the
// repository's custom static checks and run them from cmd/pcvet, both
// standalone and as a `go vet -vettool` backend.
//
// The checks exist because the paper's theorems rest on conventions the
// compiler cannot see: all page transfers must flow through the accounting
// disk.Pager, record encodings must stay fixed-width so B = ⌊page/record⌋
// arithmetic holds, shard mutexes must not be held across pager I/O, and
// fault-path errors must stay errors.Is-able. Each convention gets one
// Analyzer; drivers decide which packages each analyzer runs on.
//
// A finding can be suppressed for a sanctioned site with a directive on the
// offending line or the line above:
//
//	//pcvet:allow pagerdiscipline -- the engine assembles the pager stack
//
// The reason after “--” is mandatory; a directive without one is itself
// reported. An analyzer with a Qualifier takes a parenthesized argument
// naming exactly what its finding reports, and excuses only that finding:
//
//	//pcvet:allow lockheldio(sh.mu.Lock) -- single-page miss fill, see DESIGN.md
//
// so the same line taking a different lock set — an exclusive Lock where
// the directive names RLock — is reported again. A bare directive for such
// an analyzer is malformed, and a directive that excuses no finding of an
// analyzer that ran is itself reported, so a suppression cannot outlive
// the code it was written for.
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Qualifier, when set, names what a directive for this analyzer must
	// spell out in parentheses (lockheldio: "lock set"); a finding is
	// excused only by a directive whose argument equals its Qualifier.
	Qualifier string
	// Run reports findings for one package via pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	// Qualifier is what the finding reports for its analyzer's Qualifier,
	// in QualifierOf form; empty for analyzers without one.
	Qualifier string
	Message   string
}

// A Package bundles everything a driver loads for one package: shared
// position information, syntax, and type information.
type Package struct {
	Fset   *token.FileSet
	Syntax []*ast.File // every parsed file of the package, tests included
	Pkg    *types.Package
	Info   *types.Info
}

// NewInfo allocates a types.Info with every map analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// A Pass carries one analyzer's view of one package. Files holds only the
// non-test files: the conventions are production-code conventions, and tests
// legitimately poke through abstractions (e.g. driving a bare Store).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records one finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportQualifiedf(pos, "", format, args...)
}

// ReportQualifiedf records one finding of an analyzer with a Qualifier:
// only a directive naming qualifier excuses it.
func (p *Pass) ReportQualifiedf(pos token.Pos, qualifier string, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Qualifier: qualifier, Message: fmt.Sprintf(format, args...)})
}

// Run executes the analyzers on pkg and returns the surviving diagnostics
// sorted by position: findings on lines covered by a matching
// //pcvet:allow directive are dropped, and malformed directives are
// reported, as is every directive that names one of analyzers yet excused
// none of its findings.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs, bad := directives(pkg.Fset, pkg.Syntax, analyzers)

	var files []*ast.File
	for _, f := range pkg.Syntax {
		if !strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}

	var out []Diagnostic
	out = append(out, bad...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			report: func(d Diagnostic) {
				if !dirs.allows(pkg.Fset, d) {
					out = append(out, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return out, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Pkg.Path(), err)
		}
	}
	out = append(out, dirs.unused(analyzers)...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// directiveKey identifies one suppression: an analyzer name, and the
// qualifier it names, at a file:line.
type directiveKey struct {
	file      string
	line      int
	name      string
	qualifier string
}

// directive is one allow of a //pcvet:allow comment: where the comment
// sits, and whether it has excused a finding yet.
type directive struct {
	pos   token.Pos
	allow Allow
	used  bool
}

type directiveSet map[directiveKey]*directive

// DirectivePrefix introduces a suppression comment.
const DirectivePrefix = "//pcvet:allow"

// ErrNoReason reports a directive missing its “-- reason” tail.
var ErrNoReason = errors.New("pcvet:allow directive needs a justification: //pcvet:allow <analyzer> -- <reason>")

// An Allow is one analyzer a directive excuses, with the qualifier it
// names in QualifierOf form ("" when bare).
type Allow struct {
	Name, Qualifier string
}

// String renders the allow as it is written: name or name(qualifier).
func (a Allow) String() string {
	if a.Qualifier == "" {
		return a.Name
	}
	return a.Name + "(" + a.Qualifier + ")"
}

// QualifierOf is the canonical qualifier of a set of names: trimmed,
// sorted and comma-joined, so a directive's order need not match the
// finding's.
func QualifierOf(names []string) string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// ParseDirective parses one //pcvet:allow comment into the analyzers it
// excuses and its reason. It fails with ErrNoReason when the reason is
// missing, and when an argument is unbalanced or does not fit the known
// analyzer it names: one with a Qualifier must name it, one without must
// not. Names outside known are taken as written.
func ParseDirective(text string, known []*Analyzer) ([]Allow, string, error) {
	names, reason, found := strings.Cut(strings.TrimPrefix(text, DirectivePrefix), "--")
	reason = strings.TrimSpace(reason)
	if !found || reason == "" {
		return nil, "", ErrNoReason
	}
	var allows []Allow
	for _, item := range splitTopLevel(names) {
		name, arg, hasArg := strings.Cut(item, "(")
		a := Allow{Name: strings.TrimSpace(name)}
		if a.Name == "" {
			continue
		}
		if hasArg {
			arg, closed := strings.CutSuffix(strings.TrimSpace(arg), ")")
			if !closed || strings.ContainsAny(arg, "()") {
				return nil, "", fmt.Errorf("pcvet:allow argument of %s is not one parenthesized list", a.Name)
			}
			if a.Qualifier = QualifierOf(strings.Split(arg, ",")); a.Qualifier == "" {
				return nil, "", fmt.Errorf("pcvet:allow %s() names nothing", a.Name)
			}
		}
		for _, an := range known {
			if an.Name != a.Name {
				continue
			}
			if an.Qualifier != "" && a.Qualifier == "" {
				return nil, "", fmt.Errorf("pcvet:allow %s must name the %s it excuses: //pcvet:allow %s(<%s>) -- <reason>", a.Name, an.Qualifier, a.Name, an.Qualifier)
			}
			if an.Qualifier == "" && a.Qualifier != "" {
				return nil, "", fmt.Errorf("pcvet:allow %s takes no argument", a.Name)
			}
		}
		allows = append(allows, a)
	}
	return allows, reason, nil
}

// splitTopLevel splits s at the commas outside parentheses.
func splitTopLevel(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// directives collects every //pcvet:allow comment, returning the suppression
// set and a diagnostic for each malformed directive.
func directives(fset *token.FileSet, files []*ast.File, known []*Analyzer) (directiveSet, []Diagnostic) {
	set := directiveSet{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				allows, _, err := ParseDirective(c.Text, known)
				if err != nil {
					bad = append(bad, Diagnostic{Pos: c.Pos(), Analyzer: "pcvet", Message: err.Error()})
					continue
				}
				pos := fset.Position(c.Pos())
				for _, a := range allows {
					set[directiveKey{pos.Filename, pos.Line, a.Name, a.Qualifier}] = &directive{pos: c.Pos(), allow: a}
				}
			}
		}
	}
	return set, bad
}

// allows reports whether d is covered by a directive naming its analyzer
// and qualifier on its line or the line directly above, and marks that
// directive used.
func (s directiveSet) allows(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if dir := s[directiveKey{pos.Filename, line, d.Analyzer, d.Qualifier}]; dir != nil {
			dir.used = true
			return true
		}
	}
	return false
}

// unused reports every directive naming one of ran that excused no
// finding. Directives for analyzers that did not run on the package are
// left alone: the caller chooses which analyzers run on which package.
func (s directiveSet) unused(ran []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, dir := range s {
		if dir.used || !slices.ContainsFunc(ran, func(a *Analyzer) bool { return a.Name == dir.allow.Name }) {
			continue
		}
		out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "pcvet",
			Message: fmt.Sprintf("pcvet:allow %s suppresses no finding: delete it, or move it to the line it excuses", dir.allow)})
	}
	return out
}

// ---- shared type-level helpers used by several analyzers ----

// CalleeOf resolves the statically-known function or method a call invokes,
// or nil for builtins, conversions, and calls through function values.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// PkgIs reports whether pkg's import path is path itself or ends in /path —
// so "internal/disk" matches both the in-module spelling and the full
// module-qualified one.
func PkgIs(pkg *types.Package, path string) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == path || strings.HasSuffix(pkg.Path(), "/"+path)
}

// RecvNamed returns the named type of a method's receiver (through one
// pointer), or nil if fn is not a method or the receiver is unnamed.
func RecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// pagerIOMethods are the Pager-shaped methods that transfer or release pages.
// Flush is the pool's bulk write-back; Append/Close are ChainWriter's
// page-emitting operations.
var pagerIOMethods = map[string]bool{
	"Read": true, "Write": true, "Alloc": true, "Free": true,
	"Flush": true, "Append": true, "Close": true,
}

// pagerIOFuncs are the package-level disk helpers that perform page I/O.
var pagerIOFuncs = map[string]bool{
	"ScanChain": true, "FreeChain": true, "WriteChain": true,
}

// IsPagerIO reports whether fn is a disk-package function or method that
// performs (or can perform) page I/O through a Pager. PageSize, Stats and
// friends are metadata and excluded.
func IsPagerIO(fn *types.Func) bool {
	if fn == nil || !PkgIs(fn.Pkg(), "internal/disk") {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return pagerIOMethods[fn.Name()]
	}
	return pagerIOFuncs[fn.Name()]
}

// ErrorResultIndex returns the index of fn's trailing error result, or -1.
func ErrorResultIndex(fn *types.Func) int {
	if fn == nil {
		return -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return -1
	}
	last := sig.Results().Len() - 1
	if named, ok := sig.Results().At(last).Type().(*types.Named); ok &&
		named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
		return last
	}
	return -1
}
