package core

import (
	"math"
	"testing"

	"treecode/internal/direct"
	"treecode/internal/points"
)

// TestGoldenCounters pins the paper's cost and accuracy figures for the
// n = 10,000 rows of the walk-vs-batched table in EXPERIMENTS.md
// (adaptive, minimum degree 4, alpha 0.5, seed 42), in both eval modes at
// the default worker count. The interaction counters and the largest
// selected degree are deterministic and must match exactly; the Theorem 2
// bound sum and the relative L2 error against direct summation must match
// within 1e-6 relative, which absorbs summation-order roundoff but not a
// change to the method.
func TestGoldenCounters(t *testing.T) {
	cells := []struct {
		dist              points.Distribution
		terms, pc, pp     int64
		maxDegree         int
		boundSum, relErr2 float64
	}{
		{points.Uniform, 109136728, 1852192, 113351, 11, 8.84757548524, 4.00248466205e-06},
		{points.Gaussian, 165450169, 3505146, 290517, 11, 38.3126473523, 3.58460624679e-06},
	}
	closeRel := func(got, want float64) bool { return math.Abs(got-want) <= 1e-6*math.Abs(want) }
	for _, c := range cells {
		set, err := points.Generate(c.dist, 10000, 42)
		if err != nil {
			t.Fatal(err)
		}
		exact := direct.SelfPotentials(set, 0)
		for _, mode := range []EvalMode{EvalWalk, EvalBatched} {
			e := mustEval(t, set, Config{Method: Adaptive, Degree: 4, Alpha: 0.5, Eval: mode})
			phi, st := e.Potentials()
			if st.Terms != c.terms || st.PC != c.pc || st.PP != c.pp || st.MaxDegree != c.maxDegree {
				t.Errorf("%s %s: terms %d pc %d pp %d max degree %d, want %d %d %d %d",
					c.dist, mode, st.Terms, st.PC, st.PP, st.MaxDegree, c.terms, c.pc, c.pp, c.maxDegree)
			}
			if !closeRel(st.BoundSum, c.boundSum) {
				t.Errorf("%s %s: Theorem 2 bound sum %.12g, want %.12g", c.dist, mode, st.BoundSum, c.boundSum)
			}
			if got := relErr(phi, exact); !closeRel(got, c.relErr2) {
				t.Errorf("%s %s: relative error vs direct %.12g, want %.12g", c.dist, mode, got, c.relErr2)
			}
		}
	}
}
