package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"treecode/internal/cliio"
	"treecode/internal/obs"
)

// renderFile renders the trace at path into a temporary report and
// returns the report text.
func renderFile(t *testing.T, path string) (string, error) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.txt")
	w, err := cliio.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	renderErr := render(w, path)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), renderErr
}

func TestRenderObsSnapshot(t *testing.T) {
	c := obs.New()
	c.StepEnd(c.StepBegin(), obs.StepInfo{RefitKind: "build", EvalWall: 500 * time.Microsecond, N: 10})
	c.AddEvent(obs.EventRebuildFallback, "migrant-fraction", 42)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := obs.WriteJSON(c, path); err != nil {
		t.Fatal(err)
	}
	report, err := renderFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"obs snapshot", "budget_pred", "build", "rebuild-fallback",
		"rollup: 1 steps (1 build, 0 refit, 0 full",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestReadDocRejectsForeignJSON checks that render refuses JSON that is
// not a treecode-obs snapshot instead of printing an empty report.
func TestReadDocRejectsForeignJSON(t *testing.T) {
	for _, doc := range []string{
		`{"schema":"something-else/v1"}`,
		`{"schema":"treecode-bench/v6","results":[]}`,
		`not json`,
	} {
		path := filepath.Join(t.TempDir(), "foreign.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := renderFile(t, path); err == nil || !strings.Contains(err.Error(), "not an obs snapshot") {
			t.Fatalf("%s: accepted as an obs snapshot (err %v)", doc, err)
		}
	}
}
