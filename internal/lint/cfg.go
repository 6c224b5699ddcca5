package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow layer the nanflow rule is built on: a
// small intraprocedural CFG over go/ast function bodies, stdlib-only.
//
// Each basic block holds a straight-line run of "atomic" nodes. Compound
// statements contribute only their headers (an if condition, a range
// operand, a switch tag) as nodes; their bodies become separate blocks
// wired with edges. Function literals are opaque: a FuncLit appearing in
// an expression is a value, not control flow, and analyses walk each
// function body (declared or literal) with its own CFG.
//
// The builder handles if/else, for (all three clauses), range, switch,
// type switch, select, labeled statements, break/continue (labeled and
// not), return, and fallthrough. `goto` is approximated by an edge to the
// function exit (the repository bans goto by convention; the
// approximation can only lose precision, never reports from it). A
// statement that provably never falls through — return, panic, os.Exit,
// log.Fatal*/log.Panic* — terminates its block with an edge to Exit (or
// no edge at all for panics, which unwind rather than return).

// Block is one basic block: a straight-line sequence of nodes with edges
// to its possible successors.
type Block struct {
	Index int
	Nodes []ast.Node // atomic stmts and compound-statement header exprs, in source order
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block // virtual: reached by return and by falling off the end
	Blocks []*Block
}

type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames (break-only)
}

type cfgBuilder struct {
	cfg   *CFG
	cur   *Block
	loops []loopFrame
}

// BuildCFG constructs the CFG of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	// Falling off the end of the body returns.
	b.edge(b.cur, b.cfg.Exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edge adds from -> to unless from is nil (dead code after a terminator).
func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add records an atomic node in the current block.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil { // unreachable code; keep a detached block so nodes stay visible
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// frame finds the innermost break/continue target; label "" matches the
// innermost frame, a named label matches the frame carrying it. wantCont
// restricts the search to loop frames (continue targets).
func (b *cfgBuilder) frame(label string, wantCont bool) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := &b.loops[i]
		if wantCont && f.continueTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		then := b.newBlock()
		b.edge(head, then)
		b.cur = then
		b.stmt(s.Body, "")
		thenEnd := b.cur
		var elseEnd *Block
		if s.Else != nil {
			els := b.newBlock()
			b.edge(head, els)
			b.cur = els
			b.stmt(s.Else, "")
			elseEnd = b.cur
		}
		after := b.newBlock()
		b.edge(thenEnd, after)
		if s.Else != nil {
			b.edge(elseEnd, after)
		} else {
			b.edge(head, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		after := b.newBlock()
		post := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after, continueTo: post})
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.stmt(s.Body, "")
		b.edge(b.cur, post)
		b.loops = b.loops[:len(b.loops)-1]
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		b.edge(post, head) // back edge
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		head.Nodes = append(head.Nodes, s.X)
		if s.Key != nil || s.Value != nil {
			// The per-iteration key/value binding. Analyses must use
			// walkNode, which visits only the binding of a RangeStmt node,
			// never its operand or body (those live in other blocks).
			head.Nodes = append(head.Nodes, s)
		}
		after := b.newBlock()
		b.edge(head, after)
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after, continueTo: head})
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.stmt(s.Body, "")
		b.edge(b.cur, head) // back edge
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			nodes := make([]ast.Node, 0, len(cc.List))
			for _, e := range cc.List {
				nodes = append(nodes, e)
			}
			return nodes, cc.Body, cc.List == nil
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			nodes := make([]ast.Node, 0, len(cc.List))
			for _, e := range cc.List {
				nodes = append(nodes, e)
			}
			return nodes, cc.Body, cc.List == nil
		})

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after})
		hasDefault := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			} else {
				hasDefault = true
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		b.loops = b.loops[:len(b.loops)-1]
		_ = hasDefault // a default clause only affects blocking, not edges
		// `select {}` blocks forever: no edge out at all.
		if len(s.Body.List) == 0 {
			b.cur = b.newBlock() // detached: code after is unreachable
			return
		}
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock() // detached: anything after is unreachable

	case *ast.BranchStmt:
		b.add(s)
		name := ""
		if s.Label != nil {
			name = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if f := b.frame(name, false); f != nil {
				b.edge(b.cur, f.breakTo)
			}
		case token.CONTINUE:
			if f := b.frame(name, true); f != nil {
				b.edge(b.cur, f.continueTo)
			}
		case token.GOTO:
			// Approximate: goto leaves the analyzable region.
			b.edge(b.cur, b.cfg.Exit)
		case token.FALLTHROUGH:
			// Handled by caseClauses wiring; nothing extra here.
			return
		}
		b.cur = b.newBlock() // detached

	case *ast.ExprStmt:
		b.add(s)
		if neverReturnsCall(s.X) {
			// panic/os.Exit unwind; no successor edge.
			b.cur = b.newBlock() // detached
		}

	default:
		// Assignments, declarations, sends, inc/dec, defer, go, empty:
		// straight-line nodes.
		b.add(s)
	}
}

// caseClauses wires switch/type-switch clause bodies: head -> each clause,
// each clause -> after (or the next clause body on fallthrough), and head
// -> after when there is no default clause.
func (b *cfgBuilder) caseClauses(list []ast.Stmt, label string, split func(*ast.CaseClause) ([]ast.Node, []ast.Stmt, bool)) {
	head := b.cur
	after := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, breakTo: after})
	hasDefault := false
	bodies := make([]*Block, len(list))
	ends := make([]*Block, len(list))
	falls := make([]bool, len(list))
	for i, c := range list {
		cc := c.(*ast.CaseClause)
		nodes, body, isDefault := split(cc)
		if isDefault {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(head, blk)
		blk.Nodes = append(blk.Nodes, nodes...)
		b.cur = blk
		bodies[i] = blk
		b.stmtList(body)
		ends[i] = b.cur
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				falls[i] = true
			}
		}
	}
	for i := range list {
		if falls[i] && i+1 < len(list) {
			b.edge(ends[i], bodies[i+1])
		} else {
			b.edge(ends[i], after)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	if !hasDefault {
		b.edge(head, after)
	}
	b.cur = after
}

// neverReturnsCall reports whether e is a call that never returns to the
// caller: panic, os.Exit, log.Fatal*/log.Panic*, runtime.Goexit.
func neverReturnsCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name == "panic"
	case *ast.SelectorExpr:
		id, ok := f.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case id.Name == "os" && f.Sel.Name == "Exit":
			return true
		case id.Name == "log" && (f.Sel.Name == "Fatal" || f.Sel.Name == "Fatalf" ||
			f.Sel.Name == "Fatalln" || f.Sel.Name == "Panic" || f.Sel.Name == "Panicf" || f.Sel.Name == "Panicln"):
			return true
		case id.Name == "runtime" && f.Sel.Name == "Goexit":
			return true
		}
	}
	return false
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder — the canonical iteration order for forward dataflow.
func (c *CFG) ReversePostorder() []*Block {
	seen := make([]bool, len(c.Blocks))
	var order []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(c.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// inspectShallow walks n without descending into function literals: a
// FuncLit is a value in the enclosing function's flow, and its body is
// analyzed under its own CFG.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

// walkNode visits the sub-expressions of one CFG block node in source
// order, skipping function literals. A RangeStmt node stands for the
// loop's per-iteration key/value binding only, so just Key and Value are
// visited — its operand and body belong to other blocks.
func walkNode(n ast.Node, fn func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		if rs.Key != nil {
			inspectShallow(rs.Key, fn)
		}
		if rs.Value != nil {
			inspectShallow(rs.Value, fn)
		}
		return
	}
	inspectShallow(n, fn)
}

// collectFuncBodies returns the body of every function declaration and
// every function literal in the file, each separately analyzable.
func collectFuncBodies(file *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch f := n.(type) {
		case *ast.FuncDecl:
			if f.Body != nil {
				out = append(out, f.Body)
			}
		case *ast.FuncLit:
			out = append(out, f.Body)
		}
		return true
	})
	return out
}
