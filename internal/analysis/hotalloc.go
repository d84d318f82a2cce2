package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"overcell/internal/analysis/framework"
)

// allocFact marks a function that allocates on (essentially) every
// call: it grows an uncapped slice or allocates inside one of its own
// loops. Calling such a function from a //oc:hotpath function is
// reported at the call site, across package boundaries.
//
// fmt calls are deliberately NOT a fact seed: error formatting on a
// cold branch (budget trips, invariant failures) must not taint every
// caller. fmt is checked only directly inside hotpath functions.
type allocFact struct {
	Why string
}

func (*allocFact) AFact() bool { return true }

// HotAlloc holds //oc:hotpath functions — the MBFS wave loops, TIG
// search, per-net scratch paths — to allocation discipline:
//
//   - no slice/map composite literals, &composites, make, or closures
//     allocated inside loops (hoist them to per-call or per-run scratch);
//   - no append to locally-declared slices without preallocated
//     capacity (make(T, 0, n));
//   - no interface boxing inside loops;
//   - no fmt calls (formatting belongs on the cold path);
//   - no calls to functions that allocate per call, wherever they live
//     (tracked by allocFact through the call graph).
var HotAlloc = &framework.Analyzer{
	Name: "hotalloc",
	Doc: "enforce allocation discipline in //oc:hotpath functions\n\n" +
		"The router spends its time in a handful of inner loops; a single\n" +
		"per-wave allocation there dominates the profile. Annotate hot\n" +
		"functions with //oc:hotpath and the analyzer keeps them — and\n" +
		"everything they call, across packages — allocation-clean.",
	Run: runHotAlloc,
}

func runHotAlloc(pass *framework.Pass) error {
	if !factScope(pass.Pkg.Path(), "hotalloc") {
		return nil
	}
	dirs := framework.CollectDirectives(pass.Fset, pass.Files)
	// Facts first (to a fixpoint is unnecessary: seeds are syntactic,
	// not transitive — a function that merely calls an allocating
	// function is not itself reported to *its* callers, keeping
	// diagnostics at the first hot call edge).
	nonTestFuncs(pass, func(fn *ast.FuncDecl) {
		if dirs.Func(fn, "hotpath") {
			return // violations are reported in the function itself
		}
		obj := declObj(pass.TypesInfo, fn)
		if obj == nil {
			return
		}
		if why, ok := allocSeed(pass, fn); ok {
			pass.ExportObjectFact(obj, &allocFact{Why: why})
		}
	})
	nonTestFuncs(pass, func(fn *ast.FuncDecl) {
		if dirs.Func(fn, "hotpath") {
			checkHotFunc(pass, fn)
		}
	})
	return nil
}

// sliceOrigin tracks how each local slice was declared, for the
// append-capacity check.
type sliceOrigin int

const (
	originUnknown sliceOrigin = iota // params, package vars, call results
	originNoCap                      // var s []T, s := T{...}, 2-arg make
	originCapped                     // s := make(T, 0, n)
)

// sliceOrigins classifies the local slices of a function body.
func sliceOrigins(info *types.Info, body ast.Node) map[types.Object]sliceOrigin {
	origins := map[types.Object]sliceOrigin{}
	classify := func(e ast.Expr) sliceOrigin {
		switch e := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return originNoCap
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
					if len(e.Args) >= 3 {
						return originCapped
					}
					return originNoCap
				}
			}
		}
		return originUnknown
	}
	set := func(id *ast.Ident, org sliceOrigin) {
		obj := objOfIdent(info, id)
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		origins[obj] = org
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				// append(x, ...) results keep x's origin.
				if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok {
					if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "append" {
						continue
					}
				}
				set(id, classify(n.Rhs[i]))
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if len(vs.Values) == 0 {
						set(name, originNoCap)
					} else if i < len(vs.Values) {
						set(name, classify(vs.Values[i]))
					}
				}
			}
		}
		return true
	})
	return origins
}

// uncappedAppends yields every append whose target is a local slice
// declared without capacity.
func uncappedAppends(pass *framework.Pass, body ast.Node, visit func(call *ast.CallExpr, target *ast.Ident)) {
	origins := sliceOrigins(pass.TypesInfo, body)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			return true
		}
		target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := objOfIdent(pass.TypesInfo, target); obj != nil && origins[obj] == originNoCap {
			visit(call, target)
		}
		return true
	})
}

// inAnyLoop reports whether pos falls inside one of the bodies.
func inAnyLoop(bodies []*ast.BlockStmt, pos token.Pos) bool {
	for _, b := range bodies {
		if b.Pos() <= pos && pos <= b.End() {
			return true
		}
	}
	return false
}

// allocSeed decides whether a (non-hotpath) function allocates per
// call, for fact export: an uncapped append, or a slice/map literal,
// &composite, make, or closure inside one of its loops.
func allocSeed(pass *framework.Pass, fn *ast.FuncDecl) (string, bool) {
	var why string
	uncappedAppends(pass, fn.Body, func(call *ast.CallExpr, target *ast.Ident) {
		if why == "" {
			why = fmt.Sprintf("grows %s without preallocated capacity", target.Name)
		}
	})
	if why != "" {
		return why, true
	}
	loops := loopBodies(fn.Body)
	if len(loops) == 0 {
		return "", false
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		if kind, ok := loopAllocKind(pass.TypesInfo, n); ok && inAnyLoop(loops, n.Pos()) {
			why = "allocates a " + kind + " inside its loop"
			return false
		}
		return true
	})
	return why, why != ""
}

// loopAllocKind classifies a node as a per-iteration allocation when it
// sits inside a loop: slice/map composite literals, &composites, make,
// and closures. Plain value struct literals stay on the stack and are
// exempt.
func loopAllocKind(info *types.Info, n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		tv, ok := info.Types[n]
		if !ok {
			return "", false
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			return "slice literal", true
		case *types.Map:
			return "map literal", true
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				return "heap composite (&T{...})", true
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				return "make", true
			}
		}
	case *ast.FuncLit:
		return "closure", true
	}
	return "", false
}

// checkHotFunc reports every allocation-discipline violation inside a
// //oc:hotpath function.
func checkHotFunc(pass *framework.Pass, fn *ast.FuncDecl) {
	loops := loopBodies(fn.Body)

	uncappedAppends(pass, fn.Body, func(call *ast.CallExpr, target *ast.Ident) {
		pass.Reportf(call.Pos(),
			"append to %s grows without preallocated capacity in a //oc:hotpath function: declare it with make(T, 0, n)",
			target.Name)
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if kind, ok := loopAllocKind(pass.TypesInfo, n); ok && inAnyLoop(loops, n.Pos()) {
			pass.Reportf(n.Pos(),
				"%s allocates per iteration in a //oc:hotpath loop: hoist it to per-call or per-run scratch", kind)
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // don't double-report the closure's own body
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(pass.TypesInfo, call)
		if callee == nil {
			checkBoxing(pass, loops, call, nil)
			return true
		}
		if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "fmt" {
			pass.Reportf(call.Pos(),
				"call to fmt.%s allocates in a //oc:hotpath function: move formatting to the cold path", callee.Name())
			return true
		}
		if isModuleFunc(callee, "hotalloc") {
			var fact allocFact
			if pass.ImportObjectFact(callee, &fact) {
				pass.Reportf(call.Pos(),
					"call to %s, which %s, in a //oc:hotpath function: preallocate there or take a scratch buffer", callee.Name(), fact.Why)
			}
		}
		checkBoxing(pass, loops, call, callee)
		return true
	})
}

// checkBoxing flags concrete values passed at interface-typed
// parameters inside hotpath loops: the conversion allocates per
// iteration.
func checkBoxing(pass *framework.Pass, loops []*ast.BlockStmt, call *ast.CallExpr, callee *types.Func) {
	if !inAnyLoop(loops, call.Pos()) {
		return
	}
	var sig *types.Signature
	if callee != nil {
		sig, _ = callee.Type().(*types.Signature)
	} else if tv, ok := pass.TypesInfo.Types[call.Fun]; ok {
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if pi >= params.Len() {
			if !sig.Variadic() {
				break
			}
			pi = params.Len() - 1
		}
		pt := params.At(pi).Type()
		if sig.Variadic() && pi == params.Len()-1 {
			if s, ok := pt.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if _, generic := pt.(*types.TypeParam); generic || !types.IsInterface(pt.Underlying()) {
			continue // a value passed at a type parameter is not boxed
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.IsNil() || types.IsInterface(at.Type.Underlying()) {
			continue
		}
		if _, isPtr := at.Type.Underlying().(*types.Pointer); isPtr {
			continue // pointers box without copying the pointee
		}
		pass.Reportf(arg.Pos(),
			"%s is boxed into an interface per iteration in a //oc:hotpath loop: avoid interface conversions on the hot path",
			types.ExprString(arg))
	}
}
