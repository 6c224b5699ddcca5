package cliio

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"treecode/internal/obs"
)

// TestObsFlags covers the three ways a driver's -obsjson wiring runs: off,
// collecting without export (analyze's -obs), and exporting a trace that
// decodes as an obs snapshot. The values are built directly because a
// second ObsFlagVars call would re-register -obsjson on the default flag
// set and panic. Stdout is redirected to a file so a stray write to it
// (WriteJSON's "" destination) counts as output too.
func TestObsFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		path  bool // give -obsjson a file in the test's directory
		force bool
	}{
		{"off", false, false},
		{"force without path", false, true},
		{"path", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			stdout, err := os.Create(filepath.Join(dir, "stdout"))
			if err != nil {
				t.Fatal(err)
			}
			defer func(orig *os.File) { os.Stdout = orig }(os.Stdout)
			os.Stdout = stdout

			o := &ObsFlags{Force: tc.force}
			if tc.path {
				o.JSONPath = filepath.Join(dir, "trace.json")
			}
			col := o.Start()
			if want := tc.path || tc.force; col.Enabled() != want {
				t.Fatalf("Start returned enabled=%v, want %v", col.Enabled(), want)
			}
			col.Start("phase").End()
			if err := o.Finish(); err != nil {
				t.Fatal(err)
			}
			if err := stdout.Close(); err != nil {
				t.Fatal(err)
			}

			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			wantFiles := 1 // stdout
			if tc.path {
				wantFiles = 2
			}
			if len(entries) != wantFiles {
				t.Fatalf("directory holds %d files, want %d", len(entries), wantFiles)
			}
			if fi, err := os.Stat(stdout.Name()); err != nil {
				t.Fatal(err)
			} else if fi.Size() != 0 {
				t.Fatalf("Finish wrote %d bytes to stdout", fi.Size())
			}
			if !tc.path {
				return
			}
			raw, err := os.ReadFile(o.JSONPath)
			if err != nil {
				t.Fatal(err)
			}
			var snap obs.Snapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatalf("trace is not JSON: %v", err)
			}
			if snap.Schema != obs.SnapshotSchema {
				t.Fatalf("schema %q, want %q", snap.Schema, obs.SnapshotSchema)
			}
			if len(snap.Spans) != 1 || snap.Spans[0].Name != "phase" {
				t.Fatalf("spans %+v, want the one recorded phase", snap.Spans)
			}
		})
	}
}
