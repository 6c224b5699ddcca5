package main

import "testing"

func pairs(base, change []float64) [][2]float64 {
	p := make([][2]float64, len(base))
	for i := range base {
		p[i] = [2]float64{base[i], change[i]}
	}
	return p
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name           string
		change         []float64
		bound          float64
		higherIsBetter bool
		want           string
	}{
		{"unchanged", shift(1), 0.1, false, "same"},
		{"within bound", shift(1.05), 0.1, false, "same"},
		{"regression", shift(1.2), 0.1, false, "regression"},
		{"gain", shift(0.9), 0.1, false, "better"},
		{"higher is better regresses when it drops", shift(0.8), 0.1, true, "regression"},
		{"noisy change", noisy, 0.1, false, "unresolved"},
		{"noisy but every run better", []float64{50, 60, 70, 80, 90, 55, 65, 75, 85, 52}, 0.1, false, "better"},
	} {
		v := judge(base, c.change, pairs(base, c.change), c.bound, c.higherIsBetter)
		if v.verdict != c.want {
			t.Errorf("%s: verdict %q (worse %+.3f, won %d), want %q", c.name, v.verdict, v.worse, v.won, c.want)
		}
	}
}
