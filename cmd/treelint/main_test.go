package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitStatus pins the exit contract CI gates on: 0 for a clean
// tree, 1 for findings (printed to stdout), 2 for load and usage errors.
func TestRunExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		out  string // substring stdout must contain
	}{
		{"findings", []string{"../../internal/lint/testdata/src/floatcmp"}, 1, "[floatcmp]"},
		{"clean", []string{"../../internal/vec"}, 0, ""},
		{"missing dir", []string{"./no-such-dir"}, 2, ""},
		{"removed flag", []string{"-baseline", "x", "../../internal/vec"}, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.code, &stdout, &stderr)
			}
			if tc.code != 1 && stdout.Len() > 0 {
				t.Errorf("stdout should be empty, got:\n%s", &stdout)
			}
			if !strings.Contains(stdout.String(), tc.out) {
				t.Errorf("stdout missing %q:\n%s", tc.out, &stdout)
			}
			if tc.code != 2 && !strings.HasPrefix(stderr.String(), "treelint: ") {
				t.Errorf("stderr should hold the summary line, got:\n%s", &stderr)
			}
		})
	}
}
