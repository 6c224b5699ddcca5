package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path ("treecode/internal/core")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module. Module-internal
// imports are resolved from source (memoized); everything else is handed
// to the standard library's source importer, so no compiled export data,
// GOPATH, or golang.org/x/tools machinery is needed.
//
// Test files are skipped: treelint targets production sources — test code
// is exercised directly by `go test` and covered by `go vet` in CI, and
// deliberately exact comparisons are idiomatic there.
type Loader struct {
	ModuleRoot string // absolute path of the directory holding go.mod
	ModulePath string // module path declared in go.mod

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
}

// NewLoader returns a loader rooted at the module containing dir. It
// searches upward from dir for a go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
	}, nil
}

// Import implements types.Importer: module-internal paths are loaded from
// source, all others delegate to the standard importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.LoadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadPath loads the module package with the given import path.
func (l *Loader) LoadPath(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return l.load(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
}

// LoadDir loads the package in dir. If dir is inside the module, its
// canonical import path is derived from the module path; otherwise the
// directory base name is used (this is how fixture packages outside the
// module, e.g. under testdata/, are loaded).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := filepath.Base(abs)
	if rel, err := filepath.Rel(l.ModuleRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			path = l.ModulePath
		} else if !strings.Contains(rel, "testdata") {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
	}
	return l.load(abs, path)
}

func (l *Loader) load(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil // cycle guard

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		// Only the files the build compiles for this GOOS/GOARCH: one
		// package's per-architecture files (multipole's fused_amd64.go and
		// fused_other.go) declare the same names.
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	cfg := &types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// PackageDirs returns, in sorted order, every directory under root that
// contains at least one non-test Go file, skipping testdata, hidden and
// underscore-prefixed directories. It is the loader-side expansion of the
// "./..." pattern.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
