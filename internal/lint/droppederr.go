package lint

import (
	"go/ast"
	"go/types"
)

// DroppedErr flags call statements that silently discard an error return
// value, including deferred calls (the classic `defer f.Close()` on a file
// being written). The approved discards are an explicit `_ =` assignment
// or the deferred-closure form `defer func() { _ = f.Close() }()` — both
// show the drop was a decision, not an oversight. A close error that
// should propagate goes into a named error return from a deferred call:
// `defer func() { if cerr := f.Close(); err == nil { err = cerr } }()`.
//
// Best-effort terminal output (fmt.Print* and fmt.Fprint* to
// os.Stdout/os.Stderr) and never-failing writers (strings.Builder,
// bytes.Buffer) are exempt. Writes to a *bufio.Writer are also exempt:
// bufio keeps a sticky error that the final Flush reports, and Flush
// itself is NOT exempt, so the error cannot be lost without a finding.
var DroppedErr = &Analyzer{
	Name: "droppederr",
	Doc:  "flags discarded error return values",
	Run:  runDroppedErr,
}

func runDroppedErr(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			kind := "result of"
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = s.Call
				kind = "deferred"
			case *ast.GoStmt:
				call = s.Call
				kind = "go"
			}
			if call == nil {
				return true
			}
			if !returnsError(p, call) || errExempt(p, call) {
				return true
			}
			p.Report(call.Pos(), "%s %s discards its error; handle it or assign to _ explicitly", kind, callName(call))
			return true
		})
	}
}

// returnsError reports whether the call has an error among its results.
func returnsError(p *Pass, call *ast.CallExpr) bool {
	t := p.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// errExempt reports whether the callee's errors are best-effort by design.
func errExempt(p *Pass, call *ast.CallExpr) bool {
	switch name := qualifiedName(p, call.Fun); name {
	case "fmt.Print", "fmt.Printf", "fmt.Println":
		return true
	case "fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln":
		if len(call.Args) > 0 && isStdStream(p, call.Args[0]) {
			return true
		}
		if len(call.Args) > 0 && isInfallibleWriter(p.TypeOf(call.Args[0])) {
			return true
		}
	}
	// Methods on never-failing / sticky-error writers — except Flush,
	// which is exactly where a sticky error surfaces.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name != "Flush" {
		if isInfallibleWriter(p.TypeOf(sel.X)) {
			return true
		}
	}
	return false
}

// qualifiedName returns "pkg.Func" for a package-level function reference,
// or "" for anything else.
func qualifiedName(p *Pass, fun ast.Expr) string {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Info.ObjectOf(id).(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Name() + "." + sel.Sel.Name
}

func isStdStream(p *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if qualifiedName(p, sel) == "os.Stdout" || qualifiedName(p, sel) == "os.Stderr" {
		return true
	}
	return false
}

func isInfallibleWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer", "bufio.Writer":
		return true
	}
	return false
}

// callName renders the callee for a diagnostic.
func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	default:
		return "call"
	}
}
