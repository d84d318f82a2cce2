package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"overcell/internal/analysis/framework"
)

// pointkeyScope: every package doing geometry math in track index
// space.
var pointkeyScope = []string{"core", "tig", "maze", "steiner", "global", "grid", "geom"}

// PointKey guards the geometry value model:
//
//  1. Structs with floating-point fields must not be used as map keys.
//     tig.Point and friends are exact integer track indices precisely
//     so that equality (and thus map lookup and via deduplication) is
//     well defined; a float coordinate breaks that (NaN != NaN, and
//     two mathematically equal coordinates can differ in the last
//     bit), so occupancy maps silently leak or miss conflicts.
//
//  2. Non-constant narrowing conversions of integer (or float→int)
//     values are flagged: truncating a coordinate or a flattened grid
//     index wraps silently on large layouts and corrupts geometry far
//     from the overflow site. A conversion of x & C, for a constant C
//     that the destination holds and that is not negative, carries its
//     bound with it and is not flagged: the result lies in [0, C].
var PointKey = &framework.Analyzer{
	Name: "pointkey",
	Doc: "flag float-keyed geometry maps and truncating coordinate conversions\n\n" +
		"Geometry identity must be exact: integer point structs as map keys,\n" +
		"no silently narrowing conversions in index math.",
	Run: runPointKey,
}

func runPointKey(pass *framework.Pass) error {
	if !inScope(pass.Pkg.Path(), "pointkey", pointkeyScope) {
		return nil
	}
	for _, f := range pass.Files {
		if framework.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.MapType:
				checkMapKey(pass, n)
			case *ast.CallExpr:
				checkNarrowingConversion(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMapKey flags map types whose key is (or contains, one level
// deep) a floating-point-carrying struct.
func checkMapKey(pass *framework.Pass, mt *ast.MapType) {
	tv, ok := pass.TypesInfo.Types[mt.Key]
	if !ok {
		return
	}
	if field, bad := floatField(tv.Type, 2); bad {
		pass.Reportf(mt.Key.Pos(),
			"struct with floating-point field %s used as map key: float equality makes geometry lookups unstable; key on integer track indices",
			field)
	}
}

// floatField reports the first floating-point field found in a struct
// type, descending depth levels through nested structs.
func floatField(t types.Type, depth int) (string, bool) {
	st, ok := t.Underlying().(*types.Struct)
	if !ok || depth == 0 {
		return "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if b, ok := f.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			return f.Name(), true
		}
		if name, bad := floatField(f.Type(), depth-1); bad {
			return name, true
		}
	}
	return "", false
}

// checkNarrowingConversion flags T(x) where T is a strictly smaller
// integer type than x's (or x is a float converted to an integer) and
// x is not a compile-time constant.
func checkNarrowingConversion(pass *framework.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	funTV, ok := pass.TypesInfo.Types[ast.Unparen(call.Fun)]
	if !ok || !funTV.IsType() {
		return // an ordinary call, not a conversion
	}
	argTV, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || argTV.Value != nil {
		return // constant conversions are checked by the compiler
	}
	dst, ok := basicOf(funTV.Type)
	if !ok {
		return
	}
	src, ok := basicOf(argTV.Type)
	if !ok {
		return
	}
	if narrows(src, dst) && !maskedToFit(pass, call.Args[0], dst) {
		pass.Reportf(call.Pos(),
			"conversion %s(%s) may truncate: %s does not fit %s; widen the destination or bound-check explicitly",
			types.ExprString(call.Fun), types.ExprString(call.Args[0]), src, dst)
	}
}

// maskedToFit reports whether e is x & C (or C & x) for an integer
// constant C with 0 <= C and C representable in dst, so that e's value
// is in [0, C] whatever x is.
func maskedToFit(pass *framework.Pass, e ast.Expr, dst *types.Basic) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != token.AND {
		return false
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		tv, ok := pass.TypesInfo.Types[side]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			continue
		}
		if constant.Sign(tv.Value) >= 0 && representable(tv.Value, dst) {
			return true
		}
	}
	return false
}

// representable reports whether the integer constant v fits dst.
func representable(v constant.Value, dst *types.Basic) bool {
	w, ok := intWidth[dst.Kind()]
	if !ok {
		return false
	}
	if dst.Info()&types.IsUnsigned == 0 {
		w-- // the sign bit
	}
	return constant.BitLen(v) <= w
}

func basicOf(t types.Type) (*types.Basic, bool) {
	b, ok := t.Underlying().(*types.Basic)
	return b, ok
}

// intWidth gives the bit width of an integer kind on a 64-bit target.
var intWidth = map[types.BasicKind]int{
	types.Int: 64, types.Int8: 8, types.Int16: 16, types.Int32: 32, types.Int64: 64,
	types.Uint: 64, types.Uint8: 8, types.Uint16: 16, types.Uint32: 32, types.Uint64: 64,
	types.Uintptr: 64,
}

func narrows(src, dst *types.Basic) bool {
	if src.Info()&types.IsFloat != 0 && dst.Info()&types.IsInteger != 0 {
		return true // float -> int always discards
	}
	if src.Info()&types.IsInteger == 0 || dst.Info()&types.IsInteger == 0 {
		return false
	}
	sw, dok := intWidth[src.Kind()]
	dw, sok := intWidth[dst.Kind()]
	if !dok || !sok {
		return false
	}
	return dw < sw
}
