package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// MathDomain flags calls to math.Sqrt, math.Log (and variants), math.Acos,
// math.Asin and math.Pow whose argument is not obviously inside the
// function's domain and not protected by a dominating guard. Out-of-domain
// arguments produce quiet NaNs that propagate into every error statistic
// the reproduction reports — a rounding-negative radicand is the classic
// way a treecode's error measurement goes silently wrong.
//
// An expression is treated as obviously non-negative when it is a
// non-negative constant, a square x*x, a call to math.Abs or one of the
// project's norm-like methods (Norm, Norm2, Dist, Dist2, AbsCharge), a
// max with a non-negative bound, a sum/product/quotient of such terms, or
// a local variable only ever assigned such values. A dominating guard is
// either an enclosing `if x > 0` (or >= 0) whose then-branch contains the
// call, or an earlier `if x < 0 { return/continue/break/panic }` bail-out
// in the same block. math.Acos/Asin additionally accept arguments clamped
// to [-1, 1] via math.Min/math.Max or a clamp helper. math.Pow accepts a
// provably integral exponent (negative bases are then well-defined).
var MathDomain = &Analyzer{
	Name: "mathdomain",
	Doc:  "flags math.Sqrt/Log/Acos/Asin/Pow calls with unproven domains",
	Run:  runMathDomain,
}

// nonNegFuncs are function/method names whose results are non-negative by
// contract.
var nonNegFuncs = map[string]bool{
	"Abs": true, "Norm": true, "Norm2": true, "Dist": true, "Dist2": true,
	"Sqrt": true, "Hypot": true, "Exp": true, "Len": true, "Size": true,
	"MaxDim": true, "Factorial": true, "DoubleFactorial": true,
}

func runMathDomain(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkMathDomainFunc(p, fd)
			return true
		})
	}
}

// provableNonNeg combines the value analysis (isNonNeg) with the
// dominating-guard analysis, recursing through sums, products and
// quotients so that e.g. eps*a/(1-alpha) is proven once eps, a and alpha
// are each covered by an early bail-out. stack is the AST ancestry of the
// expression's use site (innermost last), as maintained by a push/pop
// ast.Inspect. Shared by mathdomain (call-site domains) and nanflow
// (source classification).
func provableNonNeg(p *Pass, e ast.Expr, assigns map[string][]ast.Expr, stack []ast.Node) bool {
	e = unparen(e)
	if isNonNeg(p, e, assigns, nil) || guardedNonNeg(p, e, stack) {
		return true
	}
	if be, ok := e.(*ast.BinaryExpr); ok {
		switch be.Op {
		case token.ADD, token.MUL, token.QUO:
			return provableNonNeg(p, be.X, assigns, stack) && provableNonNeg(p, be.Y, assigns, stack)
		case token.SUB:
			// c - x >= 0 when a dominating guard bounds x < c' <= c.
			return constNonNeg(p, be.X) && guardedUpperBound(p, be.Y, be.X, stack)
		}
	}
	return false
}

func checkMathDomainFunc(p *Pass, fd *ast.FuncDecl) {
	assigns := collectAssignments(fd.Body)
	var stack []ast.Node
	provable := func(e ast.Expr) bool { return provableNonNeg(p, e, assigns, stack) }
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := qualifiedName(p, call.Fun)
		switch fn {
		case "math.Sqrt", "math.Log", "math.Log2", "math.Log10", "math.Log1p":
			arg := call.Args[0]
			if provable(arg) {
				return true
			}
			p.Report(call.Pos(), "%s argument %s is not provably non-negative; clamp it or guard the call",
				fn, render(arg))
		case "math.Acos", "math.Asin":
			arg := call.Args[0]
			if isUnitRange(p, arg, assigns) {
				return true
			}
			p.Report(call.Pos(), "%s argument %s is not provably in [-1, 1]; clamp it (rounding can push |x| above 1)",
				fn, render(arg))
		case "math.Pow":
			base, exp := call.Args[0], call.Args[1]
			if provable(base) || isIntegralExpr(p, exp) {
				return true
			}
			p.Report(call.Pos(), "math.Pow base %s is not provably non-negative and the exponent is not integral",
				render(base))
		}
		return true
	})
}

// collectAssignments maps local variable names to every expression
// assigned to them within the function body (nil marks unanalyzable
// writes).
func collectAssignments(body *ast.BlockStmt) map[string][]ast.Expr {
	m := make(map[string][]ast.Expr)
	mark := func(name string, e ast.Expr) {
		if name == "_" || name == "" {
			return
		}
		m[name] = append(m[name], e)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if s.Tok == token.ADD_ASSIGN || s.Tok == token.MUL_ASSIGN {
							// x += y, x *= y: keep both operands.
							mark(id.Name, s.Rhs[i])
						} else if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
							mark(id.Name, s.Rhs[i])
						} else {
							mark(id.Name, nil)
						}
					}
				}
			} else {
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						mark(id.Name, nil)
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					mark(name.Name, s.Values[i])
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok {
				mark(id.Name, nil)
			}
		}
		return true
	})
	return m
}

// isNonNeg reports whether e is obviously >= 0. seen guards against
// recursive local-variable cycles.
func isNonNeg(p *Pass, e ast.Expr, assigns map[string][]ast.Expr, seen map[string]bool) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return isNonNeg(p, x.X, assigns, seen)
	case *ast.BasicLit:
		return constNonNeg(p, e)
	case *ast.UnaryExpr:
		return x.Op == token.ADD && isNonNeg(p, x.X, assigns, seen)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.MUL:
			if render(x.X) == render(x.Y) { // a square
				return true
			}
			return isNonNeg(p, x.X, assigns, seen) && isNonNeg(p, x.Y, assigns, seen)
		case token.ADD, token.QUO:
			return isNonNeg(p, x.X, assigns, seen) && isNonNeg(p, x.Y, assigns, seen)
		}
		return constNonNeg(p, e)
	case *ast.CallExpr:
		if fn := qualifiedName(p, x.Fun); fn == "math.Max" {
			return isNonNeg(p, x.Args[0], assigns, seen) || isNonNeg(p, x.Args[1], assigns, seen)
		}
		switch f := x.Fun.(type) {
		case *ast.SelectorExpr:
			if nonNegFuncs[f.Sel.Name] {
				return true
			}
			// v.Dot(v): an inner product with itself is a square.
			if f.Sel.Name == "Dot" && len(x.Args) == 1 && render(f.X) == render(x.Args[0]) {
				return true
			}
		case *ast.Ident:
			if nonNegFuncs[f.Name] {
				return true
			}
			// Conversions like float64(i) of unsigned values.
			if tv, ok := p.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				if t := p.TypeOf(x.Args[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsUnsigned != 0 {
						return true
					}
				}
				return isNonNeg(p, x.Args[0], assigns, seen)
			}
		}
		return constNonNeg(p, e)
	case *ast.SelectorExpr:
		if nonNegFuncs[x.Sel.Name] { // fields like AbsCharge? (method value without call: no)
			return false
		}
		return constNonNeg(p, e)
	case *ast.Ident:
		if constNonNeg(p, e) {
			return true
		}
		if assigns == nil {
			return false
		}
		exprs, ok := assigns[x.Name]
		if !ok || len(exprs) == 0 {
			return false
		}
		if seen == nil {
			seen = make(map[string]bool)
		}
		if seen[x.Name] {
			return false
		}
		seen[x.Name] = true
		for _, rhs := range exprs {
			if rhs == nil || !isNonNeg(p, rhs, assigns, seen) {
				return false
			}
		}
		return true
	}
	return constNonNeg(p, e)
}

// constNonNeg reports whether the type checker evaluated e to a constant
// >= 0.
func constNonNeg(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	f, ok := constant.Float64Val(constant.ToFloat(tv.Value))
	return ok && f >= 0
}

// isUnitRange reports whether e is obviously within [-1, 1]: a constant in
// range, a recognized min/max clamp, or a clamp-helper call.
func isUnitRange(p *Pass, e ast.Expr, assigns map[string][]ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return isUnitRange(p, x.X, assigns)
	case *ast.CallExpr:
		fn := qualifiedName(p, x.Fun)
		// math.Min(1, math.Max(-1, v)) or math.Max(-1, math.Min(1, v)).
		if fn == "math.Min" && constLE1(p, x.Args[0]) && hasLowerClamp(p, x.Args[1]) {
			return true
		}
		if fn == "math.Min" && constLE1(p, x.Args[1]) && hasLowerClamp(p, x.Args[0]) {
			return true
		}
		if fn == "math.Max" && constGEm1(p, x.Args[0]) && hasUpperClamp(p, x.Args[1]) {
			return true
		}
		if fn == "math.Max" && constGEm1(p, x.Args[1]) && hasUpperClamp(p, x.Args[0]) {
			return true
		}
		// A helper named clamp*/Clamp* is trusted.
		switch f := x.Fun.(type) {
		case *ast.Ident:
			if isClampName(f.Name) {
				return true
			}
		case *ast.SelectorExpr:
			if isClampName(f.Sel.Name) {
				return true
			}
		}
	case *ast.Ident:
		if assigns != nil {
			if exprs, ok := assigns[x.Name]; ok && len(exprs) > 0 {
				for _, rhs := range exprs {
					if rhs == nil || !isUnitRange(p, rhs, assigns) {
						return constUnit(p, e)
					}
				}
				return true
			}
		}
	}
	return constUnit(p, e)
}

func isClampName(name string) bool {
	return name == "clamp" || name == "Clamp" || name == "clampUnit" || name == "ClampUnit" || name == "clamp1"
}

func constUnit(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	f, ok := constant.Float64Val(constant.ToFloat(tv.Value))
	return ok && f >= -1 && f <= 1
}

func constLE1(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	f, ok := constant.Float64Val(constant.ToFloat(tv.Value))
	return ok && f <= 1
}

func constGEm1(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	f, ok := constant.Float64Val(constant.ToFloat(tv.Value))
	return ok && f >= -1
}

func hasLowerClamp(p *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || qualifiedName(p, call.Fun) != "math.Max" {
		return false
	}
	return constGEm1(p, call.Args[0]) || constGEm1(p, call.Args[1])
}

func hasUpperClamp(p *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || qualifiedName(p, call.Fun) != "math.Min" {
		return false
	}
	return constLE1(p, call.Args[0]) || constLE1(p, call.Args[1])
}

// isIntegralExpr reports whether e is an integer constant or an integer
// value converted to float (math.Pow with an integral exponent is defined
// for negative bases).
func isIntegralExpr(p *Pass, e ast.Expr) bool {
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
		if constant.ToInt(tv.Value).Kind() == constant.Int {
			return true
		}
	}
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			if t := p.TypeOf(call.Args[0]); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					return true
				}
			}
		}
	}
	return false
}

// guardedNonNeg reports whether a dominating check establishes arg >= 0 at
// the call site: an enclosing `if arg > 0` (or >= 0) then-branch, or an
// earlier bail-out `if arg < 0 { return/continue/break/panic }` in an
// enclosing block.
func guardedNonNeg(p *Pass, arg ast.Expr, stack []ast.Node) bool {
	key := render(arg)
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			// Inside the then-branch of `if arg > 0`?
			if i+1 < len(stack) && stack[i+1] == n.Body && condImpliesNonNeg(p, n.Cond, key) {
				return true
			}
		case *ast.BlockStmt:
			// A bail-out guard earlier in this block.
			var stmt ast.Node
			if i+1 < len(stack) {
				stmt = stack[i+1]
			}
			for _, s := range n.List {
				if s == stmt {
					break
				}
				ifs, ok := s.(*ast.IfStmt)
				if !ok || ifs.Else != nil {
					continue
				}
				if condImpliesNeg(p, ifs.Cond, key) && alwaysExits(ifs.Body) {
					return true
				}
			}
		}
	}
	return false
}

// condImpliesNonNeg reports whether cond being true implies key >= 0:
// `key > c` / `key >= c` / `c < key` / `c <= key` for a constant c >= 0.
// For &&, either conjunct suffices.
func condImpliesNonNeg(p *Pass, cond ast.Expr, key string) bool {
	if be, ok := unparen(cond).(*ast.BinaryExpr); ok {
		if be.Op == token.LAND {
			return condImpliesNonNeg(p, be.X, key) || condImpliesNonNeg(p, be.Y, key)
		}
		x, y := render(be.X), render(be.Y)
		switch be.Op {
		case token.GTR, token.GEQ:
			return x == key && constNonNeg(p, be.Y)
		case token.LSS, token.LEQ:
			return y == key && constNonNeg(p, be.X)
		}
	}
	return false
}

// condImpliesNeg reports whether cond being FALSE implies key >= 0, i.e.
// the bail-out condition covers all negative values of key: `key < c`,
// `key <= c`, `c > key`, `c >= key` for a constant c >= 0. For ||, any
// disjunct suffices: the fall-through negates them all.
func condImpliesNeg(p *Pass, cond ast.Expr, key string) bool {
	if be, ok := unparen(cond).(*ast.BinaryExpr); ok {
		if be.Op == token.LOR {
			return condImpliesNeg(p, be.X, key) || condImpliesNeg(p, be.Y, key)
		}
		x, y := render(be.X), render(be.Y)
		switch be.Op {
		case token.LSS, token.LEQ: // key < c, key <= c
			return x == key && constNonNeg(p, be.Y)
		case token.GTR, token.GEQ: // c > key, c >= key
			return y == key && constNonNeg(p, be.X)
		}
	}
	return false
}

// alwaysExits reports whether the block unconditionally leaves the
// surrounding flow (return, continue, break, panic, os.Exit).
func alwaysExits(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Exit" {
				return true
			}
		}
	}
	return false
}

// guardedUpperBound reports whether a dominating bail-out establishes
// key <= bound: an earlier `if key >= c { return/... }` (or `key > c`)
// with constant c <= bound, possibly inside an || chain.
func guardedUpperBound(p *Pass, keyExpr, boundExpr ast.Expr, stack []ast.Node) bool {
	bound, ok := constVal(p, boundExpr)
	if !ok {
		return false
	}
	key := render(keyExpr)
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		var stmt ast.Node
		if i+1 < len(stack) {
			stmt = stack[i+1]
		}
		for _, s := range block.List {
			if s == stmt {
				break
			}
			ifs, ok := s.(*ast.IfStmt)
			if !ok || ifs.Else != nil || !alwaysExits(ifs.Body) {
				continue
			}
			if condImpliesAbove(p, ifs.Cond, key, bound) {
				return true
			}
		}
	}
	return false
}

// condImpliesAbove reports whether cond covers all values key > bound:
// `key >= c` / `key > c` / `c <= key` / `c < key` with c <= bound.
func condImpliesAbove(p *Pass, cond ast.Expr, key string, bound float64) bool {
	if be, ok := unparen(cond).(*ast.BinaryExpr); ok {
		if be.Op == token.LOR {
			return condImpliesAbove(p, be.X, key, bound) || condImpliesAbove(p, be.Y, key, bound)
		}
		x, y := render(be.X), render(be.Y)
		switch be.Op {
		case token.GEQ, token.GTR: // key >= c
			if x == key {
				c, ok := constVal(p, be.Y)
				return ok && c <= bound
			}
		case token.LEQ, token.LSS: // c <= key
			if y == key {
				c, ok := constVal(p, be.X)
				return ok && c <= bound
			}
		}
	}
	return false
}

func constVal(p *Pass, e ast.Expr) (float64, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	f, ok := constant.Float64Val(constant.ToFloat(tv.Value))
	return f, ok
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
