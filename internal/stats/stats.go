// Package stats provides the error metric of the paper's experiments and
// small table-formatting helpers shared by the benchmark drivers.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// RelErr2 is the paper's simulation error: ||a' - a||_2 / ||a||_2, where a
// holds the accurate potentials and aPrime the treecode's. A zero reference
// with a nonzero approximation returns +Inf; two zero vectors return 0.
func RelErr2(aPrime, a []float64) float64 {
	if len(aPrime) != len(a) {
		panic("stats: length mismatch")
	}
	var num, den float64
	for i := range a {
		d := aPrime[i] - a[i]
		num += d * d
		den += a[i] * a[i]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// MaxAbsErr returns max_i |aPrime_i - a_i|.
func MaxAbsErr(aPrime, a []float64) float64 {
	if len(aPrime) != len(a) {
		panic("stats: length mismatch")
	}
	var m float64
	for i := range a {
		if d := math.Abs(aPrime[i] - a[i]); d > m {
			m = d
		}
	}
	return m
}

// MeanAbsErr returns the mean of |aPrime_i - a_i| — the per-point absolute
// error whose growth with n (linear for the fixed-degree method under
// uniform charge density, logarithmic for the adaptive method) is the
// paper's headline comparison.
func MeanAbsErr(aPrime, a []float64) float64 {
	if len(aPrime) != len(a) {
		panic("stats: length mismatch")
	}
	var s float64
	for i := range a {
		s += math.Abs(aPrime[i] - a[i])
	}
	return s / float64(len(a))
}

// Table accumulates rows and renders a fixed-width text table, enough for
// the experiment drivers to print paper-style tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; values are formatted with %v, floats compactly.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders a float compactly: scientific for very small/large
// magnitudes, fixed otherwise.
func FormatFloat(v float64) string {
	a := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case a < 1e-3 || a >= 1e6:
		return fmt.Sprintf("%.3e", v)
	case a < 1:
		return fmt.Sprintf("%.5f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// FormatCount renders large counts the way the paper does ("254 million").
func FormatCount(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2f billion", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1f million", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
