package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExpandPatterns checks the "/..." expansion over the fixture tree and
// plain directory patterns.
func TestExpandPatterns(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(cwd, []string{"./testdata/src/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 6 {
		t.Fatalf("expanded to %d dirs, want 6: %v", len(dirs), dirs)
	}
	single, err := ExpandPatterns(cwd, []string{"./testdata/src/floatcmp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || filepath.Base(single[0]) != "floatcmp" {
		t.Fatalf("plain pattern expanded to %v", single)
	}
}

// TestLintDirsIntegration runs the driver pipeline end to end over two
// fixture packages and checks aggregation, relative file names and the
// summary line.
func TestLintDirsIntegration(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(cwd, []string{"./testdata/src/floatcmp", "./testdata/src/suppress"})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := LintDirs(cwd, dirs, All())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Packages != 2 {
		t.Errorf("Packages = %d, want 2", sum.Packages)
	}
	if len(sum.Findings) == 0 {
		t.Fatal("expected findings from the floatcmp fixture")
	}
	for _, f := range sum.Findings {
		if filepath.IsAbs(f.File) {
			t.Errorf("finding file %q should be relative to the lint root", f.File)
		}
	}
	if got := sum.Suppressed["floatcmp"]; got != 2 {
		t.Errorf("Suppressed[floatcmp] = %d, want 2", got)
	}

	line := sum.String()
	if !strings.Contains(line, "in 2 packages") || !strings.Contains(line, "suppressed: floatcmp=2") {
		t.Errorf("summary line %q missing package or suppression counts", line)
	}
}

// TestLintCleanPackage checks that linting a clean in-module package
// produces no findings (the repository's own vec package is the witness).
func TestLintCleanPackage(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(cwd, "..", "vec")
	sum, err := LintDirs(filepath.Dir(cwd), []string{dir}, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Findings) != 0 {
		t.Errorf("internal/vec should lint clean, got %v", sum.Findings)
	}
}
