// Package cliio provides the output-handling helper shared by the
// command-line drivers: a buffered writer over a file or stdout whose
// write errors surface at Close instead of being silently dropped.
package cliio

import (
	"bufio"
	"os"
)

// Output is a buffered destination for a driver's report: a file when a
// path is given, os.Stdout otherwise. Writes go through W; bufio keeps the
// first write error sticky, so checking Close catches all of them.
type Output struct {
	W *bufio.Writer
	f *os.File // nil when writing to stdout
}

// Create opens path for writing, or wraps os.Stdout when path is empty.
func Create(path string) (*Output, error) {
	if path == "" {
		return &Output{W: bufio.NewWriter(os.Stdout)}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Output{W: bufio.NewWriter(f), f: f}, nil
}

// Close flushes buffered output and closes the underlying file. It returns
// the first error encountered, including any sticky write error.
func (o *Output) Close() error {
	err := o.W.Flush()
	if o.f != nil {
		if cerr := o.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Name returns the destination's name for error messages.
func (o *Output) Name() string {
	if o.f == nil {
		return "stdout"
	}
	return o.f.Name()
}
