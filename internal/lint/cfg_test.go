package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as a file, returning the body of the first function
// declaration.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd.Body
		}
	}
	t.Fatal("no function in source")
	return nil
}

// findBlock returns the first reachable block containing a call to name.
func findBlock(c *CFG, name string) *Block {
	for _, b := range c.ReversePostorder() {
		for _, n := range b.Nodes {
			found := false
			walkNode(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return true
			})
			if found {
				return b
			}
		}
	}
	return nil
}

// The CFG tests check edges through two graph queries no rule needs:
// back-edge classification and reachability.

// BackEdges returns the set of edges (from.Index, to.Index) that close a
// loop: edges whose target is on the DFS stack when traversed from Entry.
func (c *CFG) BackEdges() map[[2]int]bool {
	back := make(map[[2]int]bool)
	state := make([]int, len(c.Blocks)) // 0 unvisited, 1 on stack, 2 done
	var dfs func(*Block)
	dfs = func(b *Block) {
		state[b.Index] = 1
		for _, s := range b.Succs {
			switch state[s.Index] {
			case 0:
				dfs(s)
			case 1:
				back[[2]int{b.Index, s.Index}] = true
			}
		}
		state[b.Index] = 2
	}
	dfs(c.Entry)
	return back
}

// ReachableFrom returns the set of block indices reachable from start by
// following successor edges. When skipBack is true, loop back edges are
// excluded, which restricts reachability to "later in the same pass
// through the code".
func (c *CFG) ReachableFrom(start *Block, skipBack bool) map[int]bool {
	var back map[[2]int]bool
	if skipBack {
		back = c.BackEdges()
	}
	reach := make(map[int]bool)
	var dfs func(*Block)
	dfs = func(b *Block) {
		for _, s := range b.Succs {
			if skipBack && back[[2]int{b.Index, s.Index}] {
				continue
			}
			if !reach[s.Index] {
				reach[s.Index] = true
				dfs(s)
			}
		}
	}
	dfs(start)
	return reach
}

// TestCFGIfBranches checks that both arms of an if/else reach the join and
// that a return in one arm edges to Exit instead.
func TestCFGIfBranches(t *testing.T) {
	c := BuildCFG(parseBody(t, `
func f(a bool) {
	before()
	if a {
		thenCall()
		return
	}
	after()
}`))
	thenB := findBlock(c, "thenCall")
	afterB := findBlock(c, "after")
	if thenB == nil || afterB == nil {
		t.Fatal("missing blocks for thenCall/after")
	}
	if !c.ReachableFrom(thenB, false)[c.Exit.Index] {
		t.Error("then-branch with return should reach Exit")
	}
	if c.ReachableFrom(thenB, false)[afterB.Index] {
		t.Error("code after an early return must not be reachable from the returning branch")
	}
}

// TestCFGLoopBackEdge checks that a for loop closes with a back edge:
// with back edges, a statement earlier in the loop body is reachable from
// a later one; with skipBack, it is not.
func TestCFGLoopBackEdge(t *testing.T) {
	c := BuildCFG(parseBody(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		first()
		if i == 2 {
			second()
		}
	}
	done()
}`))
	if len(c.BackEdges()) == 0 {
		t.Fatal("for loop should contribute a back edge")
	}
	firstB, secondB := findBlock(c, "first"), findBlock(c, "second")
	if firstB == nil || secondB == nil {
		t.Fatal("missing loop body blocks")
	}
	if !c.ReachableFrom(secondB, false)[firstB.Index] {
		t.Error("with back edges, the loop body head is reachable from its tail")
	}
	if c.ReachableFrom(secondB, true)[firstB.Index] {
		t.Error("skipping back edges, the loop body head is NOT reachable from its tail")
	}
}

// TestCFGBreakAndLabels checks labeled break wiring: break L from an inner
// loop jumps past the outer loop.
func TestCFGBreakAndLabels(t *testing.T) {
	c := BuildCFG(parseBody(t, `
func f(xs []int) {
L:
	for _, x := range xs {
		for {
			inner()
			if x > 0 {
				break L
			}
		}
	}
	done()
}`))
	innerB, doneB := findBlock(c, "inner"), findBlock(c, "done")
	if innerB == nil || doneB == nil {
		t.Fatal("missing blocks")
	}
	if !c.ReachableFrom(innerB, false)[doneB.Index] {
		t.Error("break L should make code after the outer loop reachable from the inner body")
	}
}

// TestCFGInfiniteLoopNoExit checks that `for {}` with no break never
// reaches Exit.
func TestCFGInfiniteLoopNoExit(t *testing.T) {
	c := BuildCFG(parseBody(t, `
func f() {
	for {
		spin()
	}
}`))
	spinB := findBlock(c, "spin")
	if spinB == nil {
		t.Fatal("missing spin block")
	}
	if c.ReachableFrom(spinB, false)[c.Exit.Index] {
		t.Error("for{} without break must not reach Exit")
	}
}

// TestCFGSwitchFallthrough checks that fallthrough chains clause bodies
// and that a panic terminates its block.
func TestCFGSwitchFallthrough(t *testing.T) {
	c := BuildCFG(parseBody(t, `
func f(x int) {
	switch x {
	case 1:
		one()
		fallthrough
	case 2:
		two()
	default:
		panic("boom")
	}
	done()
}`))
	oneB, twoB, doneB := findBlock(c, "one"), findBlock(c, "two"), findBlock(c, "done")
	if oneB == nil || twoB == nil || doneB == nil {
		t.Fatal("missing blocks")
	}
	if !c.ReachableFrom(oneB, false)[twoB.Index] {
		t.Error("fallthrough should chain case 1 into case 2")
	}
	pb := findBlock(c, "panic")
	if pb == nil {
		t.Fatal("missing panic block")
	}
	if c.ReachableFrom(pb, false)[doneB.Index] {
		t.Error("panic must not fall through to the code after the switch")
	}
}

// TestCFGSelect checks that every comm clause is a successor of the select
// head and rejoins after.
func TestCFGSelect(t *testing.T) {
	c := BuildCFG(parseBody(t, `
func f(a, b chan int) {
	select {
	case <-a:
		recvA()
	case v := <-b:
		_ = v
		recvB()
	}
	done()
}`))
	ra, rb, doneB := findBlock(c, "recvA"), findBlock(c, "recvB"), findBlock(c, "done")
	if ra == nil || rb == nil || doneB == nil {
		t.Fatal("missing blocks")
	}
	if !c.ReachableFrom(ra, false)[doneB.Index] || !c.ReachableFrom(rb, false)[doneB.Index] {
		t.Error("both select clauses should rejoin after the select")
	}
}

// TestWalkNodeSkipsFuncLit pins that walkNode does not descend into
// function literals.
func TestWalkNodeSkipsFuncLit(t *testing.T) {
	body := parseBody(t, `
func f() {
	g := func() { hidden() }
	g()
}`)
	c := BuildCFG(body)
	var names []string
	for _, b := range c.ReversePostorder() {
		for _, n := range b.Nodes {
			walkNode(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					names = append(names, id.Name)
				}
				return true
			})
		}
	}
	joined := strings.Join(names, " ")
	if strings.Contains(joined, "hidden") {
		t.Errorf("walkNode descended into a FuncLit: %s", joined)
	}
	if !strings.Contains(joined, "g") {
		t.Errorf("walkNode should still see the enclosing statements: %s", joined)
	}
}
