// Package lint is a self-contained static-analysis framework for the
// treecode repository, built only on the standard library's go/ast,
// go/parser, go/token and go/types (no golang.org/x/tools dependency).
//
// The paper's contribution is an error discipline: per-cluster multipole
// degrees chosen so every accepted interaction stays under a provable
// bound. That discipline is only as trustworthy as the code that measures
// it — an exact float comparison, a silently dropped error, an unguarded
// math.Sqrt on a rounding-negative operand, or a NaN that silently fails
// every comparison can corrupt the very error measurements the
// reproduction is about. The analyzers in this package mechanically
// enforce the coding invariants the numerics rely on:
//
//	floatcmp    exact ==/!= between floating-point expressions
//	droppederr  discarded error return values
//	mathdomain  math.Sqrt/Log/Acos/... on arguments not provably in-domain
//	hotalloc    allocations (fmt, boxing, growing append) in //treecode:hot code
//	nanflow     possibly-NaN floats reaching comparisons or error budgets
//
// nanflow runs on a small intraprocedural CFG (cfg.go); the others are
// AST scans. Only non-test files are linted: the loader skips _test.go
// files.
//
// Findings can be suppressed with a trailing or preceding comment
//
//	//lint:ignore <rule> <reason>
//
// where the reason is mandatory; a reasonless suppression is itself a
// finding. The cmd/treelint driver applies the suite to ./... and exits
// non-zero on findings, so the suite can gate CI.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	File    string
	Line    int
	Col     int
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	rule     string
	findings *[]Finding
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.Info.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		DroppedErr,
		MathDomain,
		HotAlloc,
		NanFlow,
	}
}

// Result aggregates one package run.
type Result struct {
	Findings   []Finding
	Suppressed map[string]int // rule -> count of suppressed findings
}

// RunPackage applies the analyzers to a loaded package, then filters the
// findings through //lint:ignore suppressions. Malformed suppressions
// (missing rule or reason) are reported as rule "lint" findings.
func RunPackage(pkg *Package, analyzers []*Analyzer) *Result {
	var findings []Finding
	pass := &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		findings: &findings,
	}
	for _, a := range analyzers {
		pass.rule = a.Name
		a.Run(pass)
	}

	sup := collectSuppressions(pkg.Fset, pkg.Files)
	res := &Result{Suppressed: make(map[string]int)}
	res.Findings = append(res.Findings, sup.malformed...)
	for _, f := range findings {
		if sup.matches(f) {
			res.Suppressed[f.Rule]++
			continue
		}
		res.Findings = append(res.Findings, f)
	}
	sortFindings(res.Findings)
	return res
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}
