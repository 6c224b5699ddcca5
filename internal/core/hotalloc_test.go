package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"treecode/internal/harmonics"
	"treecode/internal/points"
	"treecode/internal/vec"
)

// TestHotPathEscapeAnalysis is the compiler-backed upgrade of treelint's
// syntactic hotalloc rule: it rebuilds internal/core, internal/multipole,
// internal/rotation (the y-rotation of every FMM M2L) and internal/tree
// (whose refit kernels run every timestep) with
// -gcflags=-m and asserts the escape analysis proves no heap allocation
// inside //treecode:hot functions. The only tolerated
// diagnostics are the observability shard's amortized counter growth
// (make([]obs.LevelMetrics, ...) / make([]int64, ...) when a per-level or
// per-degree slice first reaches a new level), which happens O(tree height)
// times per run, not per interaction.
func TestHotPathEscapeAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles two packages; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []string{"./internal/core", "./internal/multipole", "./internal/rotation", "./internal/tree"}
	out := buildWithEscapes(t, goBin, root, pkgs, false)
	if !strings.Contains(out, "escapes to heap") {
		// A cached build that does not replay compiler diagnostics would
		// make the test vacuous; force a rebuild of the two packages.
		out = buildWithEscapes(t, goBin, root, pkgs, true)
	}
	if !strings.Contains(out, "escapes to heap") {
		t.Skip("toolchain did not emit escape diagnostics")
	}

	hot := hotFunctionRanges(t, root, "internal/core", "internal/multipole", "internal/rotation", "internal/tree")
	diag := regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*(?:escapes to heap|moved to heap).*)$`)
	amortized := regexp.MustCompile(`make\(\[\]obs\.LevelMetrics|make\(\[\]int64`)
	var violations []string
	for _, line := range strings.Split(out, "\n") {
		m := diag.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		fn, ok := hot[m[1]]
		if !ok {
			continue
		}
		inHot := false
		for _, r := range fn {
			if ln >= r[0] && ln <= r[1] {
				inHot = true
				break
			}
		}
		if inHot && !amortized.MatchString(m[3]) {
			violations = append(violations, strings.TrimSpace(line))
		}
	}
	if len(violations) > 0 {
		t.Fatalf("escape analysis found heap allocations inside //treecode:hot functions:\n  %s",
			strings.Join(violations, "\n  "))
	}
}

// buildWithEscapes compiles pkgs with -gcflags=-m and returns the combined
// output (the diagnostics go to stderr). force adds -a to defeat the build
// cache when it does not replay diagnostics.
func buildWithEscapes(t *testing.T, goBin, root string, pkgs []string, force bool) string {
	t.Helper()
	args := []string{"build", "-gcflags=-m"}
	if force {
		args = append(args, "-a")
	}
	args = append(args, pkgs...)
	cmd := exec.Command(goBin, args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// hotFunctionRanges parses the non-test sources of the given package dirs
// and returns, per repo-relative file path, the [start, end] line ranges of
// functions carrying the //treecode:hot marker.
func hotFunctionRanges(t *testing.T, root string, dirs ...string) map[string][][2]int {
	t.Helper()
	out := map[string][][2]int{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil || fd.Body == nil {
					continue
				}
				marked := false
				for _, c := range fd.Doc.List {
					if strings.TrimSpace(c.Text) == "//treecode:hot" {
						marked = true
						break
					}
				}
				if !marked {
					continue
				}
				out[rel] = append(out[rel], [2]int{
					fset.Position(fd.Body.Pos()).Line,
					fset.Position(fd.Body.End()).Line,
				})
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no //treecode:hot functions found; marker drifted?")
	}
	return out
}

// TestBatchedLeafKernelZeroAllocs pins the steady-state batched kernels at
// zero allocations: once every leaf's interaction plan is built (the warm-up
// pass), whole evaluation passes (potentials and fields, all leaves) serve
// plans from the cache and must not allocate at all.
func TestBatchedLeafKernelZeroAllocs(t *testing.T) {
	set, err := points.Generate(points.Gaussian, 2000, 31)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(set, Config{Method: Adaptive, Degree: 4, Eval: EvalBatched})
	if err != nil {
		t.Fatal(err)
	}
	w := &batchWorker{
		worker:      worker{e: e},
		planScratch: new(planScratch),
	}
	e.ensurePlans()
	out := make([]float64, set.N())
	for li := range e.leaves {
		w.leafPotentials(li, out) // warm-up: build every leaf's plan
	}
	if a := testing.AllocsPerRun(3, func() {
		for li := range e.leaves {
			w.leafPotentials(li, out)
		}
	}); a != 0 {
		t.Fatalf("steady-state leafPotentials pass allocates %v times", a)
	}

	phi := make([]float64, set.N())
	field := make([]vec.V3, set.N())
	for li := range e.leaves {
		w.leafFields(li, phi, field)
	}
	if a := testing.AllocsPerRun(3, func() {
		for li := range e.leaves {
			w.leafFields(li, phi, field)
		}
	}); a != 0 {
		t.Fatalf("steady-state leafFields pass allocates %v times", a)
	}
}

// TestSetChargesSteadyStateAllocs pins the recharge of an iterative solve
// (one per GMRES matvec): the engine keeps its upward scratch across
// passes, so a steady-state SetCharges allocates only the scheduler's few
// per-level closures — less than one spherical-harmonics buffer at the
// carried degree, whatever that degree is. Re-allocating the scratch on
// every pass fails it.
func TestSetChargesSteadyStateAllocs(t *testing.T) {
	set, err := points.Generate(points.Gaussian, 3000, 31)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(set, Config{Method: Adaptive, Degree: 12, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, set.N())
	for i := range q {
		q[i] = float64(i%7) - 3
	}
	if err := e.SetCharges(q); err != nil { // warm-up
		t.Fatal(err)
	}
	const calls = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := e.SetCharges(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	scratch := uint64(harmonics.Len(e.MaxSelectedDegree()) * 16)
	if perCall >= scratch {
		t.Fatalf("steady-state SetCharges allocates %d B per call, at least one %d B upward scratch buffer (max degree %d)",
			perCall, scratch, e.MaxSelectedDegree())
	}
}
