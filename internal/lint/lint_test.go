package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// wantMarkers parses the "// WANT rule [rule ...]" expectation comments out
// of every non-test Go file in dir, returning base-filename:line -> sorted
// rule names.
func wantMarkers(t *testing.T, dir string) map[string][]string {
	t.Helper()
	want := make(map[string][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// WANT ")
			if i < 0 {
				continue
			}
			key := fmt.Sprintf("%s:%d", e.Name(), line)
			rules := strings.Fields(text[i+len("// WANT "):])
			sort.Strings(rules)
			want[key] = rules
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// lintFixture loads and lints the fixture package in testdata/src/<name>.
func lintFixture(t *testing.T, name string) *Result {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return RunPackage(pkg, All())
}

// TestAnalyzerFixtures checks, for every rule's fixture package, that each
// seeded violation is caught by exactly the intended rule and that nothing
// else is flagged.
func TestAnalyzerFixtures(t *testing.T) {
	for _, rule := range []string{
		"floatcmp", "droppederr", "mathdomain", "hotalloc", "nanflow",
	} {
		t.Run(rule, func(t *testing.T) {
			res := lintFixture(t, rule)
			got := make(map[string][]string)
			for _, f := range res.Findings {
				key := fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
				got[key] = append(got[key], f.Rule)
			}
			for _, rules := range got {
				sort.Strings(rules)
			}
			want := wantMarkers(t, filepath.Join("testdata", "src", rule))
			if len(want) == 0 {
				t.Fatal("fixture has no WANT markers")
			}
			for key, rules := range want {
				if !reflect.DeepEqual(got[key], rules) {
					t.Errorf("%s: want rules %v, got %v", key, rules, got[key])
				}
			}
			for key, rules := range got {
				if _, ok := want[key]; !ok {
					t.Errorf("%s: unexpected findings %v", key, rules)
				}
			}
			if len(res.Suppressed) != 0 {
				t.Errorf("unexpected suppressions: %v", res.Suppressed)
			}
		})
	}
}

// TestSuppressions checks that reasoned //lint:ignore comments (trailing
// and next-line forms) silence findings and are counted, while a
// reasonless suppression is itself reported and silences nothing.
func TestSuppressions(t *testing.T) {
	res := lintFixture(t, "suppress")

	if got := res.Suppressed["floatcmp"]; got != 2 {
		t.Errorf("suppressed floatcmp count = %d, want 2", got)
	}
	if got := res.Suppressed["nanflow"]; got != 1 {
		t.Errorf("suppressed nanflow count = %d, want 1", got)
	}
	var rules []string
	for _, f := range res.Findings {
		rules = append(rules, f.Rule)
	}
	sort.Strings(rules)
	// The reasonless suppression leaves its floatcmp finding live and adds
	// a malformed-suppression finding under rule "lint".
	if want := []string{"floatcmp", "lint"}; !reflect.DeepEqual(rules, want) {
		t.Fatalf("finding rules = %v, want %v\nfindings: %v", rules, want, res.Findings)
	}
	for _, f := range res.Findings {
		if f.Rule == "lint" && !strings.Contains(f.Message, "reason") {
			t.Errorf("malformed-suppression message should demand a reason, got %q", f.Message)
		}
	}
}

// TestFindingString pins the file:line:col: [rule] message format the
// driver prints and CI greps for.
func TestFindingString(t *testing.T) {
	f := Finding{File: "a/b.go", Line: 3, Col: 7, Rule: "floatcmp", Message: "boom"}
	if got, want := f.String(), "a/b.go:3:7: [floatcmp] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
