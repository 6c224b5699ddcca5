package stats

import (
	"math"
	"strings"
	"testing"
)

func TestRelErr2(t *testing.T) {
	a := []float64{3, 4}
	if got := RelErr2(a, a); got != 0 {
		t.Errorf("identical vectors: %v", got)
	}
	if got := RelErr2([]float64{4, 4}, a); math.Abs(got-1.0/5) > 1e-15 {
		t.Errorf("RelErr2 = %v, want 0.2", got)
	}
	if got := RelErr2([]float64{0, 0}, []float64{0, 0}); got != 0 {
		t.Errorf("zero/zero = %v", got)
	}
	if got := RelErr2([]float64{1, 0}, []float64{0, 0}); !math.IsInf(got, 1) {
		t.Errorf("nonzero/zero = %v, want +Inf", got)
	}
}

func TestRelErr2PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RelErr2([]float64{1}, []float64{1, 2})
}

func TestMaxAbsErr(t *testing.T) {
	if got := MaxAbsErr([]float64{1, 5, 3}, []float64{1, 2, 7}); got != 4 {
		t.Errorf("MaxAbsErr = %v", got)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("n", "error", "terms")
	tb.AddRow(1000, 1.5e-7, "12 million")
	tb.AddRow(2000, 0.25, int64(99))
	s := tb.String()
	for _, want := range []string{"n", "error", "terms", "1000", "1.500e-07", "0.25000", "12 million", "99", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1e-7:    "1.000e-07",
		0.5:     "0.50000",
		12.3456: "12.346",
		2e9:     "2.000e+09",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestFormatCount(t *testing.T) {
	cases := map[int64]string{
		12:            "12",
		25000:         "25.0K",
		254_000_000:   "254.0 million",
		3_000_000_000: "3.00 billion",
	}
	for v, want := range cases {
		if got := FormatCount(v); got != want {
			t.Errorf("FormatCount(%d) = %q, want %q", v, got, want)
		}
	}
}
