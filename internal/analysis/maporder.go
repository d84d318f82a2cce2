package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"overcell/internal/analysis/framework"
)

// maporderScope is the set of routing decision packages: code whose
// control flow picks tracks, paths, victims, or commit order. A `range`
// over a map there makes the routing result depend on Go's randomized
// iteration order, which breaks the reproducibility the paper's tables
// assume (same seed, same area/wire-length/via counts). The channel
// routers are level A's half of those decisions. The obs package is
// included because its collector summaries and trace streams carry the
// same byte-identical guarantee (see
// flow.TestProposedTraceDeterministic).
var maporderScope = []string{"core", "tig", "maze", "steiner", "global", "grid", "obs", "channel"}

// MapOrder flags `range` statements over map values inside the routing
// decision packages unless the loop is provably order-insensitive:
//
//   - the loop only collects keys/values into slices that are later
//     sorted in the same function (the sorted-key iteration idiom), or
//   - the loop body is a pure commutative accumulation (+=, *=, |=, &=,
//     ^=, ++, --), or
//   - the loop binds neither key nor value, so iterations are
//     indistinguishable.
//
// Test files are exempt: they assert on results rather than produce
// them.
var MapOrder = &framework.Analyzer{
	Name: "maporder",
	Doc: "flag nondeterministic map iteration in routing decision packages\n\n" +
		"Unordered map iteration silently reorders routing decisions from run\n" +
		"to run. Iterate sorted keys, or keep the loop body a commutative\n" +
		"accumulation.",
	Run: runMapOrder,
}

func runMapOrder(pass *framework.Pass) error {
	if !inScope(pass.Pkg.Path(), "maporder", maporderScope) {
		return nil
	}
	for _, f := range pass.Files {
		if framework.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		// Walk with the enclosing function body at hand so the
		// append-then-sort exemption can look downstream of the loop.
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
					checkMapRange(pass, n, fn)
				}
				return true
			})
		}
		walk(f, nil)
	}
	return nil
}

func checkMapRange(pass *framework.Pass, rng *ast.RangeStmt, fn ast.Node) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if rangeVarsUnused(rng) {
		return
	}
	if isCommutativeAccumulation(rng.Body) {
		return
	}
	if collectsIntoSortedSlices(pass, rng, fn) {
		return
	}
	pass.Reportf(rng.For,
		"range over map %s in routing code: iteration order is nondeterministic; iterate sorted keys or use an order-insensitive accumulator",
		types.ExprString(rng.X))
}

// rangeVarsUnused reports whether the range binds neither key nor
// value; such loops cannot observe iteration order.
func rangeVarsUnused(rng *ast.RangeStmt) bool {
	unused := func(e ast.Expr) bool {
		if e == nil {
			return true
		}
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "_"
	}
	return unused(rng.Key) && unused(rng.Value)
}

// isCommutativeAccumulation reports whether every statement in the body
// is a commutative update (x += e, x *= e, x |= e, x &= e, x ^= e,
// x++, x--), possibly guarded — the accumulated result is then
// independent of iteration order as long as the operands don't read the
// accumulator, which these forms cannot express.
func isCommutativeAccumulation(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	var stmtOK func(s ast.Stmt) bool
	var blockOK func(b *ast.BlockStmt) bool
	stmtOK = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.IncDecStmt:
			return true
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
				return true
			}
			return false
		case *ast.IfStmt:
			if s.Init != nil || s.Else != nil {
				return false
			}
			return blockOK(s.Body)
		default:
			return false
		}
	}
	blockOK = func(b *ast.BlockStmt) bool {
		for _, s := range b.List {
			if !stmtOK(s) {
				return false
			}
		}
		return true
	}
	return blockOK(body)
}

// collectsIntoSortedSlices reports whether the loop body only appends
// to local slices and each such slice is later passed to a sort
// function within the same enclosing function — the canonical
// deterministic-iteration idiom:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Ints(keys)
func collectsIntoSortedSlices(pass *framework.Pass, rng *ast.RangeStmt, fn ast.Node) bool {
	if fn == nil {
		return false
	}
	var collectors []string
	for _, s := range rng.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return false
		}
		fnID, ok := call.Fun.(*ast.Ident)
		if !ok || fnID.Name != "append" {
			return false
		}
		first, ok := call.Args[0].(*ast.Ident)
		if !ok || first.Name != lhs.Name {
			return false
		}
		collectors = append(collectors, lhs.Name)
	}
	if len(collectors) == 0 {
		return false
	}
	for _, c := range collectors {
		if !sortedLater(pass, rng, fn, c) {
			return false
		}
	}
	return true
}

// sortedLater reports whether, after the range statement, the enclosing
// function passes the named slice to a sort.* or slices.Sort* call.
func sortedLater(pass *framework.Pass, rng *ast.RangeStmt, fn ast.Node, name string) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkgID.Name != "sort" && pkgID.Name != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && id.Name == name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
