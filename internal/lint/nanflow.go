package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// NanFlow tracks, intraprocedurally, floating-point values that may be
// NaN (or ±Inf collapsing to NaN downstream) from their producer to the
// two places where a silent NaN corrupts the paper's error discipline:
//
//   - ordered comparisons (<, <=, >, >=): every ordered comparison with a
//     NaN operand is false, so a NaN acceptance radius silently REJECTS
//     every MAC test (or accepts, depending on polarity) without any
//     error signal;
//   - the observability layer's Theorem 2 error-budget accumulators:
//     calls into internal/obs (float arguments, and the float fields of
//     obs struct arguments such as StepInfo/BlockMetrics) and `+=` into a
//     budget field (Budget, and the time-series accumulators BudgetPred
//     and BudgetReal). One NaN poisons the whole per-level budget sum —
//     or a whole per-step series rollup — and the predicted-vs-realized
//     comparison reads as vacuously consistent.
//
// Sources are float divisions whose denominator is not provably nonzero
// (constant, or established by a dominating guard such as `if d == 0 {
// return }` or an enclosing `if d > 0`) and math.Sqrt/Log/Acos/Asin/Pow
// calls whose argument is not provably in-domain (the same proof
// machinery as mathdomain). Taint propagates through arithmetic and
// assignments on the function's CFG (union merge at joins, fixpoint over
// loops) and dies on reassignment from a clean expression.
//
// Precision notes: a variable that the function ever checks with
// math.IsNaN/math.IsInf (or the x != x self-test) is trusted and never
// tainted — the author has a NaN story for it; taint through slices,
// struct fields and function results is out of scope (intraprocedural,
// scalar-only), so a NaN laundered through a field store is invisible.
var NanFlow = &Analyzer{
	Name: "nanflow",
	Doc:  "flags possibly-NaN floats reaching comparisons or error-budget accumulators",
	Run:  runNanFlow,
}

func runNanFlow(p *Pass) {
	for _, file := range p.Files {
		for _, body := range collectFuncBodies(file) {
			checkNanFlow(p, body)
		}
	}
}

// nanSources is the pre-pass over one function body: it classifies every
// division and math call as clean or tainted using the AST-stack guard
// machinery (which needs syntactic ancestry, not the CFG), and collects
// the variables the function explicitly NaN-checks.
type nanSources struct {
	dirtyDiv  map[*ast.BinaryExpr]nanTaint // unsafe division -> source
	dirtyCall map[*ast.CallExpr]nanTaint   // unsafe math call -> source
	checked   map[string]bool              // vars with an explicit NaN/Inf check
}

// nanTaint identifies one NaN source: where it is and what it does.
// Findings are reported at pos — the producer, where the missing guard
// (or the suppression documenting the invariant) belongs — not at the
// sink, so one dirty expression feeding several comparisons yields one
// finding.
type nanTaint struct {
	pos  token.Pos
	desc string
}

func collectNanSources(p *Pass, body *ast.BlockStmt) *nanSources {
	src := &nanSources{
		dirtyDiv:  make(map[*ast.BinaryExpr]nanTaint),
		dirtyCall: make(map[*ast.CallExpr]nanTaint),
		checked:   make(map[string]bool),
	}
	assigns := collectAssignments(body)
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.QUO:
				if isFloat(p.TypeOf(x)) && !nonZeroDenominator(p, x.Y, assigns, stack) {
					src.dirtyDiv[x] = nanTaint{x.Pos(), "division by " + render(x.Y)}
				}
			case token.EQL, token.NEQ:
				// x != x / x == x is the portable NaN self-test.
				if render(x.X) == render(x.Y) {
					if id, ok := unparen(x.X).(*ast.Ident); ok {
						src.checked[id.Name] = true
					}
				}
			}
		case *ast.CallExpr:
			switch fn := qualifiedName(p, x.Fun); fn {
			case "math.IsNaN", "math.IsInf":
				if len(x.Args) > 0 {
					if id, ok := unparen(x.Args[0]).(*ast.Ident); ok {
						src.checked[id.Name] = true
					}
				}
			case "math.Sqrt", "math.Log", "math.Log2", "math.Log10", "math.Log1p":
				if !provableNonNeg(p, x.Args[0], assigns, stack) {
					src.dirtyCall[x] = nanTaint{x.Pos(), fn + " of unproven argument"}
				}
			case "math.Acos", "math.Asin":
				if !isUnitRange(p, x.Args[0], assigns) {
					src.dirtyCall[x] = nanTaint{x.Pos(), fn + " of unclamped argument"}
				}
			case "math.Pow":
				if !provableNonNeg(p, x.Args[0], assigns, stack) && !isIntegralExpr(p, x.Args[1]) {
					src.dirtyCall[x] = nanTaint{x.Pos(), "math.Pow with unproven base"}
				}
			}
		}
		return true
	})
	return src
}

// nonZeroDenominator reports whether den is provably nonzero: a nonzero
// constant, or covered by a dominating guard. For a conversion like
// float64(n), the inner operand's guards count too.
func nonZeroDenominator(p *Pass, den ast.Expr, assigns map[string][]ast.Expr, stack []ast.Node) bool {
	den = unparen(den)
	if v, ok := constVal(p, den); ok {
		return v != 0
	}
	if guardedNonZero(p, den, stack) {
		return true
	}
	// A product/quotient is nonzero when both factors are.
	if be, ok := den.(*ast.BinaryExpr); ok && (be.Op == token.MUL || be.Op == token.QUO) {
		return nonZeroDenominator(p, be.X, assigns, stack) && nonZeroDenominator(p, be.Y, assigns, stack)
	}
	// A sum of a provably-nonnegative term and a positive constant.
	if be, ok := den.(*ast.BinaryExpr); ok && be.Op == token.ADD {
		if v, ok := constVal(p, be.Y); ok && v > 0 && provableNonNeg(p, be.X, assigns, stack) {
			return true
		}
		if v, ok := constVal(p, be.X); ok && v > 0 && provableNonNeg(p, be.Y, assigns, stack) {
			return true
		}
	}
	// float64(n) inherits n's guards.
	if call, ok := den.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			return nonZeroDenominator(p, call.Args[0], assigns, stack)
		}
	}
	// math.Max(c, x) with c > 0 is a floor above zero.
	if call, ok := den.(*ast.CallExpr); ok && qualifiedName(p, call.Fun) == "math.Max" && len(call.Args) == 2 {
		for _, a := range call.Args {
			if v, ok := constVal(p, a); ok && v > 0 {
				return true
			}
		}
	}
	return false
}

// guardedNonZero reports whether a dominating check establishes e != 0 at
// the use site: the then-branch of `if e != 0` / `if e > c, c >= 0` /
// `if e < c, c <= 0`, or an earlier bail-out `if e == 0 { return }` (or a
// range cover like `if e <= 0 { return }`) in an enclosing block.
func guardedNonZero(p *Pass, e ast.Expr, stack []ast.Node) bool {
	key := render(e)
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			if i+1 < len(stack) && stack[i+1] == n.Body && condImpliesNonZero(p, n.Cond, key) {
				return true
			}
		case *ast.BlockStmt:
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
				if condCoversZero(p, ifs.Cond, key) && alwaysExits(ifs.Body) {
					return true
				}
			}
		}
	}
	return false
}

// condImpliesNonZero: cond true => key != 0.
func condImpliesNonZero(p *Pass, cond ast.Expr, key string) bool {
	be, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if be.Op == token.LAND {
		return condImpliesNonZero(p, be.X, key) || condImpliesNonZero(p, be.Y, key)
	}
	x, y := render(be.X), render(be.Y)
	cx, okx := constVal(p, be.X)
	cy, oky := constVal(p, be.Y)
	switch be.Op {
	case token.NEQ:
		return (x == key && oky && cy == 0) || (y == key && okx && cx == 0)
	case token.GTR: // key > c, c >= 0  |  c > key, c <= 0
		return (x == key && oky && cy >= 0) || (y == key && okx && cx <= 0)
	case token.LSS: // key < c, c <= 0  |  c < key, c >= 0
		return (x == key && oky && cy <= 0) || (y == key && okx && cx >= 0)
	case token.GEQ: // key >= c, c > 0
		return (x == key && oky && cy > 0) || (y == key && okx && cx < 0)
	case token.LEQ: // key <= c, c < 0
		return (x == key && oky && cy < 0) || (y == key && okx && cx > 0)
	}
	return false
}

// condCoversZero: cond true for key == 0, so a bail-out on cond leaves
// key != 0 behind. For ||, any disjunct covering zero suffices.
func condCoversZero(p *Pass, cond ast.Expr, key string) bool {
	be, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if be.Op == token.LOR {
		return condCoversZero(p, be.X, key) || condCoversZero(p, be.Y, key)
	}
	x, y := render(be.X), render(be.Y)
	cx, okx := constVal(p, be.X)
	cy, oky := constVal(p, be.Y)
	switch be.Op {
	case token.EQL:
		return (x == key && oky && cy == 0) || (y == key && okx && cx == 0)
	case token.LEQ: // key <= c, c >= 0
		return (x == key && oky && cy >= 0) || (y == key && okx && cx <= 0)
	case token.LSS: // key < c, c > 0
		return (x == key && oky && cy > 0) || (y == key && okx && cx < 0)
	case token.GEQ: // key >= c, c <= 0
		return (x == key && oky && cy <= 0) || (y == key && okx && cx >= 0)
	case token.GTR: // key > c, c < 0
		return (x == key && oky && cy < 0) || (y == key && okx && cx > 0)
	}
	return false
}

// taintState maps tainted local variable names to their source.
type taintState map[string]nanTaint

func (s taintState) clone() taintState {
	out := make(taintState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s taintState) mergeInto(dst taintState) bool {
	changed := false
	for k, v := range s {
		if _, ok := dst[k]; !ok {
			dst[k] = v
			changed = true
		}
	}
	return changed
}

func checkNanFlow(p *Pass, body *ast.BlockStmt) {
	// Fast pre-check: any division or math call at all?
	interesting := false
	ast.Inspect(body, func(n ast.Node) bool {
		if interesting {
			return false
		}
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if x.Op == token.QUO && isFloat(p.TypeOf(x)) {
				interesting = true
			}
		case *ast.CallExpr:
			if name := qualifiedName(p, x.Fun); len(name) > 5 && name[:5] == "math." {
				interesting = true
			}
		}
		return true
	})
	if !interesting {
		return
	}

	src := collectNanSources(p, body)
	if len(src.dirtyDiv) == 0 && len(src.dirtyCall) == 0 {
		return
	}

	cfg := BuildCFG(body)
	order := cfg.ReversePostorder()
	in := make(map[int]taintState)
	in[cfg.Entry.Index] = taintState{}

	reports := make(map[token.Pos]string)

	// exprTaint reports whether e may be NaN under state.
	var exprTaint func(e ast.Expr, st taintState) (nanTaint, bool)
	exprTaint = func(e ast.Expr, st taintState) (nanTaint, bool) {
		var desc nanTaint
		tainted := false
		inspectShallow(e, func(n ast.Node) bool {
			if tainted {
				return false
			}
			switch x := n.(type) {
			case *ast.Ident:
				if d, ok := st[x.Name]; ok && !src.checked[x.Name] {
					desc, tainted = d, true
					return false
				}
			case *ast.BinaryExpr:
				if d, ok := src.dirtyDiv[x]; ok {
					desc, tainted = d, true
					return false
				}
			case *ast.CallExpr:
				if d, ok := src.dirtyCall[x]; ok {
					desc, tainted = d, true
					return false
				}
				// NaN passes *through* math.Abs/Min/Max/conversions, so
				// keep scanning their arguments; any other call is an
				// intraprocedural boundary — its result is assumed clean.
				return propagatesNaN(p, x)
			}
			return true
		})
		return desc, tainted
	}

	// sinkScan reports sinks inside one node under state.
	sinkScan := func(n ast.Node, st taintState) {
		walkNode(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.BinaryExpr:
				switch x.Op {
				case token.LSS, token.LEQ, token.GTR, token.GEQ:
					if !isFloat(p.TypeOf(x.X)) && !isFloat(p.TypeOf(x.Y)) {
						return true
					}
					for _, side := range []ast.Expr{x.X, x.Y} {
						if d, bad := exprTaint(side, st); bad {
							if _, seen := reports[d.pos]; !seen {
								reports[d.pos] = fmt.Sprintf(
									"%s may produce NaN, which reaches the ordered comparison at line %d; NaN compares false and the decision silently inverts — guard the operand or check math.IsNaN", d.desc, p.Fset.Position(x.OpPos).Line)
							}
							break
						}
					}
				}
			case *ast.CallExpr:
				if isObsCall(p, x) {
					for _, a := range x.Args {
						if !isFloat(p.TypeOf(a)) && !isObsStruct(p.TypeOf(a)) {
							continue
						}
						if d, bad := exprTaint(a, st); bad {
							if _, seen := reports[d.pos]; !seen {
								reports[d.pos] = fmt.Sprintf(
									"%s may produce NaN, which flows into the obs error-budget accounting at line %d; one NaN poisons the whole Theorem 2 budget sum", d.desc, p.Fset.Position(a.Pos()).Line)
							}
						}
					}
				}
			case *ast.AssignStmt:
				if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && len(x.Rhs) == 1 {
					if sel, ok := unparen(x.Lhs[0]).(*ast.SelectorExpr); ok && isBudgetField(sel.Sel.Name) {
						if d, bad := exprTaint(x.Rhs[0], st); bad {
							if _, seen := reports[d.pos]; !seen {
								reports[d.pos] = fmt.Sprintf(
									"%s may produce NaN, which is accumulated into %s at line %d; one NaN poisons the whole budget sum", d.desc, render(x.Lhs[0]), p.Fset.Position(x.Pos()).Line)
							}
						}
					}
				}
			}
			return true
		})
	}

	// transfer applies one block to a state copy.
	transfer := func(b *Block, st taintState) taintState {
		st = st.clone()
		for _, n := range b.Nodes {
			sinkScan(n, st)
			switch x := n.(type) {
			case *ast.AssignStmt:
				applyAssign(p, x, st, src, exprTaint)
			case *ast.DeclStmt:
				if gd, ok := x.Decl.(*ast.GenDecl); ok {
					for _, sp := range gd.Specs {
						if vs, ok := sp.(*ast.ValueSpec); ok {
							for i, name := range vs.Names {
								if i < len(vs.Values) {
									if d, bad := exprTaint(vs.Values[i], st); bad {
										st[name.Name] = d
									} else {
										delete(st, name.Name)
									}
								} else {
									delete(st, name.Name)
								}
							}
						}
					}
				}
			case *ast.RangeStmt:
				// Fresh values drawn from a collection: assume clean.
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if id, ok := e.(*ast.Ident); ok {
						delete(st, id.Name)
					}
				}
			}
		}
		return st
	}

	for changed := true; changed; {
		changed = false
		for _, b := range order {
			st, ok := in[b.Index]
			if !ok {
				continue
			}
			out := transfer(b, st)
			for _, succ := range b.Succs {
				dst, ok := in[succ.Index]
				if !ok {
					dst = taintState{}
					in[succ.Index] = dst
					changed = true
				}
				if out.mergeInto(dst) {
					changed = true
				}
			}
		}
	}

	keys := make([]token.Pos, 0, len(reports))
	for k := range reports {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		p.Report(k, "%s", reports[k])
	}
}

// applyAssign updates taint for one assignment statement.
func applyAssign(p *Pass, x *ast.AssignStmt, st taintState, src *nanSources, exprTaint func(ast.Expr, taintState) (nanTaint, bool)) {
	switch x.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(x.Lhs) != len(x.Rhs) {
			// Multi-value call: results assumed clean (intraprocedural).
			for _, lhs := range x.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok {
					delete(st, id.Name)
				}
			}
			return
		}
		for i, lhs := range x.Lhs {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if d, bad := exprTaint(x.Rhs[i], st); bad {
				st[id.Name] = d
			} else {
				delete(st, id.Name)
			}
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		// x op= y taints x if y is tainted (and keeps existing taint).
		if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
			if id, ok := unparen(x.Lhs[0]).(*ast.Ident); ok {
				if d, bad := exprTaint(x.Rhs[0], st); bad {
					if _, already := st[id.Name]; !already {
						st[id.Name] = d
					}
				}
			}
		}
	case token.QUO_ASSIGN:
		// x /= y: a division source unless y is a provably nonzero
		// constant. (The dominating-guard machinery does not run here;
		// suppress with a reason when the guard is non-syntactic.)
		if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
			if id, ok := unparen(x.Lhs[0]).(*ast.Ident); ok && isFloat(p.TypeOf(x.Lhs[0])) {
				if v, ok := constVal(p, x.Rhs[0]); ok && v != 0 {
					return
				}
				st[id.Name] = nanTaint{x.Pos(), "compound division by " + render(x.Rhs[0])}
			}
		}
	}
}

// propagatesNaN reports whether a call passes NaN from its float
// arguments through to its result (math.Abs(NaN) is NaN, etc.), so the
// argument scan should continue for taint purposes.
func propagatesNaN(p *Pass, call *ast.CallExpr) bool {
	switch qualifiedName(p, call.Fun) {
	case "math.Abs", "math.Min", "math.Max", "math.Floor", "math.Ceil",
		"math.Trunc", "math.Round", "math.Mod", "math.Remainder",
		"math.Exp", "math.Exp2", "math.Copysign", "math.FMA":
		return true
	}
	// Type conversions pass values through.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	return false
}

// isBudgetField reports whether name is one of the error-budget
// accumulator fields: the per-level Theorem 2 Budget and the per-step
// time-series BudgetPred/BudgetReal sums.
func isBudgetField(name string) bool {
	switch name {
	case "Budget", "BudgetPred", "BudgetReal":
		return true
	}
	return false
}

// isObsStruct reports whether t is a struct type defined in internal/obs
// (StepInfo, BlockMetrics, ...). Such values carry budget fields into the
// collector, so obs calls taking them are budget sinks: a tainted float
// anywhere in the composite literal flags the producer.
func isObsStruct(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || (pkg.Path() != "treecode/internal/obs" && pkg.Name() != "obs") {
		return false
	}
	_, ok = named.Underlying().(*types.Struct)
	return ok
}

// isObsCall reports whether call invokes a function or method defined in
// the repository's internal/obs package.
func isObsCall(p *Pass, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = p.Info.ObjectOf(fun.Sel)
	case *ast.Ident:
		obj = p.Info.ObjectOf(fun)
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "treecode/internal/obs" || fn.Pkg().Name() == "obs"
}
