package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"overcell/internal/analysis/framework"
)

// nondetermScope is the set of internal packages where nondeterminism
// sources are reported directly: the routing decision packages plus
// everything that orchestrates or feeds them. Packages outside this
// list (and outside maporder's stricter regime) still participate:
// their unsuppressed wall-clock reads become facts, and any call into
// them from reported code is flagged at the call site.
var nondetermScope = []string{
	"core", "tig", "maze", "steiner", "global", "grid", "obs",
	"flow", "serve", "netlist", "channel", "gen", "verify",
	"robust", "robust/fault", "geom", "delay", "floorplan",
}

// wallClockFact marks a function that (transitively) reads the wall
// clock without a //oc:clock-ok waiver. It propagates bottom-up
// through the call graph: if helper() calls time.Now and router code
// calls helper(), the diagnostic lands on the router call site even
// when helper lives in another package.
type wallClockFact struct {
	Why string // human-readable provenance, e.g. "reads time.Now"
}

func (*wallClockFact) AFact() bool { return true }

// NonDeterm flags nondeterminism sources reachable from routing code:
//
//   - wall-clock reads (time.Now / time.Since / time.Until), as calls
//     or as function values, unless waived by //oc:clock-ok;
//   - calls into module functions that transitively read the wall
//     clock (tracked by wallClockFact across package boundaries);
//   - package-level math/rand functions, which draw from the global
//     unseeded source (constructors like rand.New(rand.NewSource(seed))
//     are the fix, not the disease, and are exempt);
//   - map iteration — beyond maporder's stricter scope — whose body
//     emits events or mutates state that outlives the loop;
//   - goroutine result collection in channel arrival order (a loop
//     binding received values in a function that spawns goroutines).
//
// It also reports //oc: directives outside the known vocabulary
// anywhere in the module, so a typo like //oc:clock-okay cannot
// silently fail to suppress.
var NonDeterm = &framework.Analyzer{
	Name: "nondeterm",
	Doc: "flag nondeterminism sources reachable from routing code\n\n" +
		"The paper's tables assume same seed, same result. Wall-clock reads,\n" +
		"the global rand source, order-sensitive map iteration, and\n" +
		"arrival-order goroutine collection each break that silently. Inject\n" +
		"clocks and seeded *rand.Rand values; annotate intentional wall-clock\n" +
		"reads with //oc:clock-ok and a reason.",
	Run: runNonDeterm,
}

func runNonDeterm(pass *framework.Pass) error {
	path := pass.Pkg.Path()
	if !factScope(path, "nondeterm") {
		return nil
	}
	dirs := framework.CollectDirectives(pass.Fset, pass.Files)
	inReport := reportScope(path, "nondeterm", nondetermScope, true)

	for _, u := range dirs.Unknown() {
		pass.Reportf(u.Pos, "unknown directive //oc:%s (known: %s)", u.Name, strings.Join(framework.KnownDirectives, ", "))
	}

	if inReport {
		nonTestFuncs(pass, func(fn *ast.FuncDecl) {
			for _, v := range clockViolations(pass, dirs, fn) {
				pass.Reportf(v.pos, "%s", v.msg)
			}
			checkGoCollect(pass, fn)
		})
		if !inScope(path, "maporder", maporderScope) {
			checkEffectfulMapRanges(pass)
		}
		return nil
	}

	// Fact-only package: record which functions reach the wall clock.
	// Iterate to a fixpoint so that a function calling a later-declared
	// sibling in the same package still picks up its fact.
	for {
		changed := false
		nonTestFuncs(pass, func(fn *ast.FuncDecl) {
			obj := declObj(pass.TypesInfo, fn)
			if obj == nil {
				return
			}
			var have wallClockFact
			if pass.ImportObjectFact(obj, &have) {
				return
			}
			if vs := clockViolations(pass, dirs, fn); len(vs) > 0 {
				pass.ExportObjectFact(obj, &wallClockFact{Why: vs[0].why})
				changed = true
			}
		})
		if !changed {
			break
		}
	}
	return nil
}

type clockViolation struct {
	pos token.Pos
	msg string // full diagnostic for report-scope packages
	why string // short provenance for the exported fact
}

// clockViolations collects the unsuppressed wall-clock and global-rand
// uses in one function, including calls to fact-carrying module
// functions.
func clockViolations(pass *framework.Pass, dirs *framework.Directives, fn *ast.FuncDecl) []clockViolation {
	var out []clockViolation
	add := func(pos token.Pos, msg, why string) {
		if dirs.FuncOrAt(fn, pos, "clock-ok") {
			return
		}
		out = append(out, clockViolation{pos, msg, why})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if callee, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func); ok {
				if name, ok := wallClockFunc(callee); ok {
					add(n.Pos(),
						fmt.Sprintf("use of time.%s in routing code: route wall-clock through an injected clock, or annotate //oc:clock-ok with a reason", name),
						"reads time."+name)
				}
				if name, ok := globalRandFunc(callee); ok {
					add(n.Pos(),
						fmt.Sprintf("call to rand.%s draws from the global unseeded source: inject a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", name),
						"uses the global rand source")
				}
			}
		case *ast.CallExpr:
			callee := calleeOf(pass.TypesInfo, n)
			if !isModuleFunc(callee, "nondeterm") {
				return true
			}
			var fact wallClockFact
			if pass.ImportObjectFact(callee, &fact) {
				add(n.Pos(),
					fmt.Sprintf("call to %s, which %s: inject a clock there or annotate the source //oc:clock-ok", callee.Name(), fact.Why),
					"calls "+callee.Name()+", which "+fact.Why)
			}
		}
		return true
	})
	return out
}

// wallClockFunc reports whether fn is one of the time package's
// wall-clock reads.
func wallClockFunc(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return "", false
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return fn.Name(), true
	}
	return "", false
}

// globalRandFunc reports whether fn is a math/rand package-level
// function drawing from the global source. Constructors that build
// seeded generators are the deterministic alternative and are exempt,
// as are methods on an injected *rand.Rand.
func globalRandFunc(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil || (pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2") {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return "", false
	}
	return fn.Name(), true
}

// checkGoCollect flags loops that bind values received from a channel
// inside a function that spawns goroutines: the merge order is then
// scheduler-dependent. Signal-only receives (<-done, <-ctx.Done())
// bind nothing and are exempt; the sanctioned pattern writes results
// into an index-addressed slice and merges after Wait in serial order.
func checkGoCollect(pass *framework.Pass, fn *ast.FuncDecl) {
	spawns := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			spawns = true
			return false
		}
		return true
	})
	if !spawns {
		return
	}
	report := func(pos token.Pos) {
		pass.Reportf(pos, "goroutine results collected in channel arrival order: write results into an index-addressed slice and merge after Wait in serial order")
	}
	for _, body := range loopBodies(fn.Body) {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, rhs := range as.Rhs {
				if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					report(u.Pos())
				}
			}
			return true
		})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !rangeVarsUnused(rng) {
			report(rng.For)
		}
		return true
	})
}

// checkEffectfulMapRanges applies a narrower version of maporder to
// the packages outside its scope: a map range is flagged only when its
// body emits observability events or mutates state that outlives the
// loop, and none of maporder's order-insensitivity exemptions hold.
func checkEffectfulMapRanges(pass *framework.Pass) {
	for _, f := range pass.Files {
		if framework.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		var walk func(n ast.Node, fn ast.Node)
		walk = func(n ast.Node, fn ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						walk(n.Body, n.Body)
					}
					return false
				case *ast.FuncLit:
					walk(n.Body, n.Body)
					return false
				case *ast.RangeStmt:
					checkEffectfulMapRange(pass, n, fn)
				}
				return true
			})
		}
		walk(f, nil)
	}
}

func checkEffectfulMapRange(pass *framework.Pass, rng *ast.RangeStmt, fn ast.Node) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if rangeVarsUnused(rng) || isCommutativeAccumulation(rng.Body) || collectsIntoSortedSlices(pass, rng, fn) {
		return
	}
	why, effectful := mapBodyEffect(pass, rng)
	if !effectful {
		return
	}
	pass.Reportf(rng.For,
		"range over map %s %s in iteration order, which is nondeterministic: iterate sorted keys",
		types.ExprString(rng.X), why)
}

// mapBodyEffect reports whether the loop body emits events or writes
// state that outlives the loop: a call to a method named Emit, an
// assignment to a package-level variable, or an element/field write
// through a base declared outside the loop.
func mapBodyEffect(pass *framework.Pass, rng *ast.RangeStmt) (string, bool) {
	var why string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Emit" {
				why = "emits events"
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if w, ok := outlivingWrite(pass, rng, lhs, n.Tok); ok {
					why = w
					return false
				}
			}
		case *ast.IncDecStmt:
			if w, ok := outlivingWrite(pass, rng, n.X, token.ASSIGN); ok {
				why = w
				return false
			}
		}
		return true
	})
	return why, why != ""
}

// outlivingWrite classifies one lvalue of an assignment inside the
// range body.
func outlivingWrite(pass *framework.Pass, rng *ast.RangeStmt, lhs ast.Expr, tok token.Token) (string, bool) {
	base := baseIdent(lhs)
	if base == nil || base.Name == "_" {
		return "", false
	}
	obj := objOfIdent(pass.TypesInfo, base)
	if obj == nil {
		return "", false
	}
	if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
		return "writes package state", true
	}
	// Locals declared within the loop body cannot observe iteration
	// order across iterations.
	if obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End() {
		return "", false
	}
	// A plain rebind of an outer scalar (x = ...) is handled by the
	// commutative-accumulation exemption when it is order-insensitive;
	// here only structured writes (field, element) count as mutation.
	if _, isIdent := lhs.(*ast.Ident); isIdent && tok == token.DEFINE {
		return "", false
	}
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return "mutates state that outlives the loop", true
	}
	return "", false
}
