package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// Summary is the aggregate of one driver run over several packages.
type Summary struct {
	Findings   []Finding
	Suppressed map[string]int // rule -> suppressed count
	Packages   int
}

// TotalSuppressed returns the number of findings silenced by
// //lint:ignore comments.
func (s *Summary) TotalSuppressed() int {
	n := 0
	for _, c := range s.Suppressed {
		n += c
	}
	return n
}

// String renders the one-line driver summary, e.g.
// "treelint: 3 findings in 42 packages (2 suppressed: floatcmp=1 mathdomain=1)".
func (s *Summary) String() string {
	out := fmt.Sprintf("treelint: %d findings in %d packages", len(s.Findings), s.Packages)
	if ts := s.TotalSuppressed(); ts > 0 {
		rules := make([]string, 0, len(s.Suppressed))
		for r := range s.Suppressed {
			rules = append(rules, r)
		}
		sort.Strings(rules)
		parts := make([]string, len(rules))
		for i, r := range rules {
			parts[i] = fmt.Sprintf("%s=%d", r, s.Suppressed[r])
		}
		out += fmt.Sprintf(" (%d suppressed: %s)", ts, strings.Join(parts, " "))
	}
	return out
}

// ExpandPatterns resolves go-style package patterns ("./...", "./internal/core")
// relative to dir into package directories.
func ExpandPatterns(dir string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := filepath.Join(dir, filepath.FromSlash(rest))
			sub, err := PackageDirs(root)
			if err != nil {
				return nil, fmt.Errorf("treelint: %s: %w", pat, err)
			}
			for _, d := range sub {
				add(d)
			}
			continue
		}
		add(filepath.Join(dir, filepath.FromSlash(pat)))
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LintDirs type-checks and lints each package directory with the given
// analyzers, aggregating findings and suppression counts. File names in
// the findings are made relative to rel when possible.
func LintDirs(rel string, dirs []string, analyzers []*Analyzer) (*Summary, error) {
	if len(dirs) == 0 {
		return &Summary{Suppressed: map[string]int{}}, nil
	}
	loader, err := NewLoader(dirs[0])
	if err != nil {
		return nil, err
	}
	sum := &Summary{Suppressed: make(map[string]int)}
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		res := RunPackage(pkg, analyzers)
		for _, f := range res.Findings {
			if r, err := filepath.Rel(rel, f.File); err == nil && !strings.HasPrefix(r, "..") {
				f.File = r
			}
			sum.Findings = append(sum.Findings, f)
		}
		for rule, n := range res.Suppressed {
			sum.Suppressed[rule] += n
		}
		sum.Packages++
	}
	sortFindings(sum.Findings)
	return sum, nil
}
