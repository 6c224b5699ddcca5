package spec

import "testing"

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's run-to-run spread is judged by (values below are
// Python's).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{1, 1, 1, 1, 1, 1, 1, 1, 3.84, 13.67}, [3]float64{1, 1, 1.71}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := Quartiles(c.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}
