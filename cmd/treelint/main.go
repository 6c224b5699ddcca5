// Command treelint runs the repository's static-analysis suite
// (internal/lint) over the requested packages and reports findings as
//
//	file:line:col: [rule] message
//
// followed by a one-line summary on stderr. It exits 0 when the tree is
// clean, 1 when there are findings, and 2 on usage or load errors.
// Suppressions (`//lint:ignore <rule> <reason>`) are honored and counted
// in the summary. Only non-test Go files are linted.
//
// Usage:
//
//	go run ./cmd/treelint ./...
//	go run ./cmd/treelint ./internal/core ./internal/fmm
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"treecode/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages named by args (default ./...) and returns the
// exit status. The findings go to stdout and are flushed and checked;
// the summary and errors go to stderr on a best-effort basis.
func run(args []string, stdout, stderr io.Writer) int {
	diag := bufio.NewWriter(stderr)
	defer func() { _ = diag.Flush() }()
	fs := flag.NewFlagSet("treelint", flag.ContinueOnError)
	fs.SetOutput(diag)
	fs.Usage = func() {
		fmt.Fprintf(diag, "usage: treelint [packages]\n\nRules:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(diag, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(diag, err)
	}
	dirs, err := lint.ExpandPatterns(cwd, patterns)
	if err != nil {
		return fail(diag, err)
	}
	sum, err := lint.LintDirs(cwd, dirs, lint.All())
	if err != nil {
		return fail(diag, err)
	}
	out := bufio.NewWriter(stdout)
	for _, f := range sum.Findings {
		fmt.Fprintln(out, f)
	}
	if err := out.Flush(); err != nil {
		return fail(diag, err)
	}
	fmt.Fprintln(diag, sum)
	if len(sum.Findings) > 0 {
		return 1
	}
	return 0
}

func fail(diag *bufio.Writer, err error) int {
	fmt.Fprintln(diag, "treelint:", err)
	return 2
}
