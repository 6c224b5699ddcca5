package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// toleranceHelpers are functions whose whole purpose is floating-point
// comparison; exact comparisons inside them are the approved idiom.
var toleranceHelpers = map[string]bool{
	"almostEq": true, "AlmostEq": true, "almostEqual": true, "AlmostEqual": true,
	"approxEq": true, "ApproxEq": true, "withinTol": true, "WithinTol": true,
}

// FloatCmp flags exact ==/!= comparisons between floating-point
// expressions. Truncation-error measurements are dominated by rounding, so
// exact equality on computed floats is almost always a latent bug; compare
// against a tolerance instead (or suppress with a reason when exactness is
// genuinely intended).
//
// Two cases are approved and not flagged: comparisons against the exact
// constant 0 (zero is exactly representable, and x == 0 guards against
// division by zero and detects unset config fields), and comparisons
// inside recognized tolerance helpers. Tests, where bitwise identity is
// often the property under test, are exempt because the loader never
// reads _test.go files.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flags exact ==/!= between floating-point expressions",
	Run:  runFloatCmp,
}

func runFloatCmp(p *Pass) {
	for _, file := range p.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(p.TypeOf(be.X)) || !isFloat(p.TypeOf(be.Y)) {
				return true
			}
			if isExactZero(p, be.X) || isExactZero(p, be.Y) {
				return true
			}
			if inToleranceHelper(stack) {
				return true
			}
			p.Report(be.OpPos, "exact %s comparison between floating-point expressions; use a tolerance", be.Op)
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isExactZero reports whether e is a constant expression equal to zero.
func isExactZero(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	f, ok := constant.Float64Val(constant.ToFloat(tv.Value))
	return ok && f == 0
}

func inToleranceHelper(stack []ast.Node) bool {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok && toleranceHelpers[fd.Name.Name] {
			return true
		}
	}
	return false
}
