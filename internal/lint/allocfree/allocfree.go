// Package allocfree implements the softlora-lint analyzer enforcing the
// strictest allocation contract in the repo: a function annotated
// //softlora:allocfree must not allocate at all in steady state — not
// directly, and not through anything it calls. This is the static twin of
// the testing.AllocsPerRun(…) == 0 pins in the benchmark suites: the pins
// catch a regression after the fact on the configurations the tests
// exercise; the annotation rejects the construct at review time on every
// path.
//
// Flagged inside allocfree functions, transitively through the call
// graph:
//   - make(...) and new(...)
//   - slice and map composite literals, and &T{...} (an escaping
//     composite literal)
//   - append(...) unless the destination was presized in-function with a
//     three-argument make — growth reallocates
//   - function literals (closures capture their environment on the heap)
//   - string ↔ []byte / []rune conversions and non-constant string
//     concatenation
//   - implicit interface conversions (boxing) in call arguments,
//     assignments, returns and var initializers
//   - go statements (a goroutine allocates its stack)
//   - calls passing a pointer or a slice to a function without a Go
//     body (an assembly routine) whose declaration lacks //go:noescape:
//     escape analysis cannot see into assembly, so it assumes every such
//     argument escapes, and a local array or struct whose address or
//     slice is passed moves to the heap on every call
//
// Deliberately not flagged: map index writes (they can grow the table,
// but the repo's hot maps are size-stable after warmup and a map write
// ban would outlaw the bias-database update path the contract exists to
// protect) and offenses inside panic(...) arguments (a panicking path is
// cold by definition).
//
// Callees with no source in the load are modeled by package: calls into
// fmt, errors, sort, strings, bytes, strconv, hash/..., and encoding/...
// are assumed allocating; math, sync/atomic and the rest of the loaded
// graph speak for themselves. A deliberate exception is silenced with
// //softlora:allocfree-ok <why> on the line or the line above; placed on
// a call line it also cuts transitive propagation through that edge.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"softlora/internal/lint/analysis"
	"softlora/internal/lint/callgraph"
	"softlora/internal/lint/directive"
)

// Analyzer is the zero-allocation contract check.
var Analyzer = &analysis.Analyzer{
	Name:      "allocfree",
	Doc:       "forbid all allocation — make/new, literals, append growth, closures, string conversions, boxing, goroutines — in //softlora:allocfree functions, transitively",
	Run:       run,
	FactTypes: []analysis.Fact{new(Allocates)},
}

// EscapeHatch silences one diagnostic when placed on or above the line.
const EscapeHatch = "allocfree-ok"

// Allocates marks a function that (transitively) allocates. Chain is the
// call path below the function, offender last.
type Allocates struct {
	Detail string
	Chain  []string
}

// AFact marks the type as a serializable analyzer fact.
func (*Allocates) AFact() {}

// allocatingStdlib are import-path prefixes of std packages whose calls
// are modeled as allocating when their source is not in the load.
var allocatingStdlib = []string{
	"fmt", "errors", "sort", "strings", "bytes", "strconv",
	"hash/", "encoding/",
}

func stdlibAllocates(path string) bool {
	for _, p := range allocatingStdlib {
		if path == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(path, p)) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	ix := directive.NewIndex(pass.Fset, pass.Files)

	// Classic intra-function check on annotated functions.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !directive.FuncHas(fn, "allocfree") {
				continue
			}
			s := newScanner(pass.Fset, pass.TypesInfo, ix, fn, pass.CallGraph)
			s.emit = func(pos token.Pos, detail string) bool {
				pass.Reportf(pos, "allocation in an allocfree function: %s", detail)
				return true
			}
			s.walk()
		}
	}

	if pass.CallGraph == nil {
		return nil, nil
	}
	propagate(pass, ix)
	return nil, nil
}

func propagate(pass *analysis.Pass, ix *directive.Index) {
	nodes := packageNodes(pass)
	rule := &callgraph.Rule{
		Graph: pass.CallGraph,
		Direct: func(n *callgraph.Node) *callgraph.Offense {
			if n.Decl.Body == nil {
				return nil
			}
			var off *callgraph.Offense
			s := newScanner(n.Fset, n.Info, ix, n.Decl, pass.CallGraph)
			s.emit = func(pos token.Pos, detail string) bool {
				off = &callgraph.Offense{Detail: detail}
				return false
			}
			s.walk()
			return off
		},
		External: func(n *callgraph.Node) *callgraph.Offense {
			pkg := n.Func.Pkg()
			if pkg == nil {
				return nil
			}
			if path := pkg.Path(); stdlibAllocates(path) {
				return &callgraph.Offense{Detail: "is modeled as allocating (package " + path + ")"}
			}
			return nil
		},
		Imported: func(n *callgraph.Node) *callgraph.Offense {
			if pass.ImportObjectFact == nil {
				return nil
			}
			var a Allocates
			if pass.ImportObjectFact(n.Func, &a) {
				return &callgraph.Offense{Detail: a.Detail, Chain: a.Chain}
			}
			return nil
		},
		EdgeOK: func(e *callgraph.Edge) bool { return ix.OKAt(e.Pos, EscapeHatch) },
	}
	sol := rule.Solve(nodes)

	for _, n := range nodes {
		if off := sol.Offense(n); off != nil && pass.ExportObjectFact != nil {
			pass.ExportObjectFact(n.Func, &Allocates{Detail: off.Detail, Chain: off.Chain})
		}
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !directive.FuncHas(fn, "allocfree") {
				continue
			}
			tfn, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			n := pass.CallGraph.Node(tfn)
			if n == nil {
				continue
			}
			root := callgraph.DisplayName(tfn)
			for _, e := range n.Out {
				if e.InPanic || ix.OKAt(e.Pos, EscapeHatch) {
					continue
				}
				sub := sol.Lookup(e.Callee)
				if sub == nil {
					continue
				}
				callee := callgraph.DisplayName(e.Callee.Func)
				chain := append([]string{root, callee}, sub.Chain...)
				pass.ReportChain(e.Pos, chain,
					"allocfree function reaches an allocation: %s", sub.Format(root, callee))
			}
		}
	}
}

// packageNodes returns the call-graph nodes of this pass's declared
// functions in deterministic order.
func packageNodes(pass *analysis.Pass) []*callgraph.Node {
	want := make(map[*callgraph.Node]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			tfn, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if n := pass.CallGraph.Node(tfn); n != nil {
				want[n] = true
			}
		}
	}
	var nodes []*callgraph.Node
	for _, n := range pass.CallGraph.Nodes() {
		if want[n] {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// scanner walks one function body emitting direct allocation sites.
// Offenses inside panic(...) arguments are always skipped.
type scanner struct {
	fset     *token.FileSet
	info     *types.Info
	ix       *directive.Index
	fn       *ast.FuncDecl
	sig      *types.Signature
	presized map[types.Object]bool
	graph    *callgraph.Graph // nil: callee declarations unknown
	emit     func(pos token.Pos, detail string) bool
	stopped  bool
}

func newScanner(fset *token.FileSet, info *types.Info, ix *directive.Index, fn *ast.FuncDecl, graph *callgraph.Graph) *scanner {
	s := &scanner{fset: fset, info: info, ix: ix, fn: fn, presized: presizedSlices(info, fn), graph: graph}
	if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
		s.sig, _ = obj.Type().(*types.Signature)
	}
	return s
}

func (s *scanner) report(pos token.Pos, detail string) {
	if s.stopped || s.ix.OKAt(pos, EscapeHatch) {
		return
	}
	if !s.emit(pos, detail) {
		s.stopped = true
	}
}

func (s *scanner) walk() {
	ast.Inspect(s.fn.Body, func(n ast.Node) bool {
		if s.stopped {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			s.report(n.Pos(), "starts a goroutine")
		case *ast.FuncLit:
			s.report(n.Pos(), "allocates a closure")
			// Keep walking the body: its allocations are attributed to
			// the enclosing function, same as the call graph does.
		case *ast.CompositeLit:
			s.composite(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					s.report(n.Pos(), "allocates an escaping composite literal")
				}
			}
		case *ast.BinaryExpr:
			s.concat(n)
		case *ast.CallExpr:
			if s.isPanicCall(n) {
				return false // panicking paths are cold; skip the arguments
			}
			s.call(n)
		case *ast.AssignStmt:
			s.assignBoxing(n)
		case *ast.ReturnStmt:
			s.returnBoxing(n)
		case *ast.ValueSpec:
			s.specBoxing(n)
		}
		return true
	})
}

func (s *scanner) isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && s.info.Uses[id] == types.Universe.Lookup("panic")
}

// composite flags slice and map literals; struct literals only allocate
// when escaping, which the &T{...} case catches.
func (s *scanner) composite(lit *ast.CompositeLit) {
	t := s.info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		s.report(lit.Pos(), "allocates a slice literal")
	case *types.Map:
		s.report(lit.Pos(), "allocates a map literal")
	}
}

// concat flags non-constant string concatenation.
func (s *scanner) concat(b *ast.BinaryExpr) {
	if b.Op != token.ADD {
		return
	}
	tv, ok := s.info.Types[b]
	if !ok || tv.Type == nil || tv.Value != nil { // constant-folded: free
		return
	}
	if bt, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && bt.Info()&types.IsString != 0 {
		s.report(b.Pos(), "concatenates strings")
	}
}

func (s *scanner) call(call *ast.CallExpr) {
	info := s.info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		s.conversion(call, tv.Type)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch info.Uses[id] {
		case types.Universe.Lookup("make"):
			s.report(call.Pos(), "allocates with make")
			return
		case types.Universe.Lookup("new"):
			s.report(call.Pos(), "allocates with new")
			return
		case types.Universe.Lookup("append"):
			if !s.appendPresized(call) {
				s.report(call.Pos(), "grows a slice with append")
			}
			return
		}
	}
	s.asmEscape(call)
	s.callBoxing(call)
}

// asmEscape flags a call passing a pointer or a slice to a body-less
// (assembly) function declared without //go:noescape.
func (s *scanner) asmEscape(call *ast.CallExpr) {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return
	}
	fn, ok := s.info.Uses[id].(*types.Func)
	if !ok || s.graph == nil {
		return
	}
	n := s.graph.Node(fn)
	if n == nil || n.Decl == nil || n.Decl.Body != nil || hasNoescape(n.Decl) {
		return
	}
	for _, arg := range call.Args {
		var kind string
		switch t := s.info.TypeOf(arg); {
		case t == nil:
			continue
		case isSlice(t):
			kind = "a slice"
		case isPointer(t):
			kind = "a pointer"
		default:
			continue
		}
		s.report(arg.Pos(), "passes "+kind+" to body-less function "+fn.Name()+
			" declared without //go:noescape (the argument escapes to the heap)")
		return
	}
}

// hasNoescape reports whether a declaration carries //go:noescape.
func hasNoescape(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimSpace(c.Text) == "//go:noescape" {
			return true
		}
	}
	return false
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func isPointer(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// conversion flags string ↔ []byte / []rune conversions.
func (s *scanner) conversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := s.info.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	if isString(to) && isByteOrRuneSlice(from) {
		s.report(call.Pos(), "converts []byte/[]rune to string")
	} else if isByteOrRuneSlice(to) && isString(from) {
		s.report(call.Pos(), "converts string to []byte/[]rune")
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func (s *scanner) appendPresized(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	obj := objOf(s.info, id)
	return obj != nil && s.presized[obj]
}

// presizedSlices collects objects assigned from a three-argument
// make(T, len, cap) — appends to those are capacity-bounded. The make
// itself is still reported; this only exempts the appends.
func presizedSlices(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	set := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" || info.Uses[id] != types.Universe.Lookup("make") {
				continue
			}
			if lhs, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := objOf(info, lhs); obj != nil {
					set[obj] = true
				}
			}
		}
		return true
	})
	return set
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// callBoxing flags concrete arguments passed to interface parameters.
func (s *scanner) callBoxing(call *ast.CallExpr) {
	tv, ok := s.info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		s.boxing(arg, pt)
	}
}

func (s *scanner) assignBoxing(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		s.boxing(rhs, s.info.TypeOf(as.Lhs[i]))
	}
}

func (s *scanner) returnBoxing(ret *ast.ReturnStmt) {
	if s.sig == nil || len(ret.Results) != s.sig.Results().Len() {
		return
	}
	for i, r := range ret.Results {
		s.boxing(r, s.sig.Results().At(i).Type())
	}
}

func (s *scanner) specBoxing(vs *ast.ValueSpec) {
	if vs.Type == nil || len(vs.Values) == 0 {
		return
	}
	t := s.info.TypeOf(vs.Type)
	for _, v := range vs.Values {
		s.boxing(v, t)
	}
}

func (s *scanner) boxing(expr ast.Expr, want types.Type) {
	if want == nil || !types.IsInterface(want) {
		return
	}
	tv, ok := s.info.Types[expr]
	if !ok || tv.Type == nil || types.IsInterface(tv.Type) {
		return
	}
	if b, isBasic := tv.Type.(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
		return
	}
	s.report(expr.Pos(), "boxes "+tv.Type.String()+" into "+want.String())
}
