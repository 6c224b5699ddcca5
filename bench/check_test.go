package main

import (
	"math"
	"testing"

	"treecode/internal/krylov"
	"treecode/internal/points"
	"treecode/internal/vec"
)

// Each failure the benchmark guards against must count as a failed
// operation, or the failure count could never move.

func TestCheckRepeatRejectsAnyBitChange(t *testing.T) {
	want := []float64{1.5, -2.25, 3e-9}
	if err := checkRepeat(append([]float64(nil), want...), want); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	got := append([]float64(nil), want...)
	got[1] = math.Nextafter(got[1], 0)
	if checkRepeat(got, want) == nil {
		t.Error("a repeat one ulp off passed")
	}
	if checkRepeat(want[:2], want) == nil {
		t.Error("a short repeat passed")
	}
	nan := []float64{math.NaN()}
	if checkRepeat(nan, nan) != nil {
		t.Error("NaN compared by value instead of by bits")
	}
}

// A perturbed potential shows as realized error; an error past the
// Theorem 2 budget fails.
func TestAccuracyCheckRejectsPerturbedPotential(t *testing.T) {
	set, err := points.Generate(points.Uniform, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 7, 42, 299}
	ref := selfPotentials(set, idx, 2)
	exact := make([]float64, set.N())
	for k, i := range idx {
		exact[i] = ref[k]
	}
	rel, l1 := sampleError(exact, idx, ref, set.N())
	if rel != 0 || l1 != 0 {
		t.Fatalf("exact potentials show error: rel %g, l1 %g", rel, l1)
	}
	const budget = 1e-6
	if err := checkBudget(l1, budget); err != nil {
		t.Fatalf("zero error rejected: %v", err)
	}
	perturbed := append([]float64(nil), exact...)
	perturbed[42] *= 1 + 1e-3
	rel, l1 = sampleError(perturbed, idx, ref, set.N())
	if rel <= 0 {
		t.Errorf("perturbation not seen: rel %g", rel)
	}
	// One of four sampled targets off by ~0.3: scaled to 300 targets.
	if want := 300.0 / 4 * math.Abs(perturbed[42]-exact[42]); math.Abs(l1-want) > 1e-12*want {
		t.Errorf("scaled L1 %g, want %g", l1, want)
	}
	if checkBudget(l1, budget) == nil {
		t.Error("an over-budget error passed")
	}
	if checkBudget(math.NaN(), budget) == nil || checkBudget(math.Inf(1), budget) == nil {
		t.Error("a non-finite error passed")
	}
}

func TestSelfPotentialsExcludesSelfAndCoincident(t *testing.T) {
	set := &points.Set{Particles: []points.Particle{
		{Pos: vec.V3{}, Charge: 1},
		{Pos: vec.V3{}, Charge: 2}, // coincident with particle 0
		{Pos: vec.V3{X: 2}, Charge: 4},
	}}
	got := selfPotentials(set, []int{0, 2}, 3)
	if got[0] != 2 || got[1] != 1.0/2+2.0/2 {
		t.Errorf("self potentials %v, want [2 1.5]", got)
	}
}

func TestCheckSolveRejectsNonConvergedAndWrongCapacitance(t *testing.T) {
	ok := &krylov.Result{Converged: true, Iterations: 58, Residual: 6e-7}
	if err := checkSolve(ok, 0.9998); err != nil {
		t.Fatalf("good solve rejected: %v", err)
	}
	if checkSolve(&krylov.Result{Converged: false, Iterations: 500, Residual: 1e-3}, 1) == nil {
		t.Error("a non-converged solve passed")
	}
	if checkSolve(ok, 1.02) == nil {
		t.Error("a capacitance 2% off passed")
	}
	if checkSolve(ok, math.NaN()) == nil {
		t.Error("a NaN capacitance passed")
	}
}

func TestCheckFiniteRejectsNaNPosition(t *testing.T) {
	ps := []points.Particle{{Pos: vec.V3{X: 1}}, {Pos: vec.V3{Y: math.Inf(-1)}}}
	if checkFinite(ps[:1]) != nil {
		t.Error("finite positions rejected")
	}
	if checkFinite(ps) == nil {
		t.Error("an infinite position passed")
	}
}

// A failed check inside a unit reaches the run's failure count, and a
// failed accuracy check fails every operation of the run.
func TestReportCountsFailures(t *testing.T) {
	r := newReport()
	r.record(3, 0, nil)
	if !r.res.Correct || r.res.Attempted != 3 || r.res.Failed != 0 {
		t.Fatalf("clean unit: %+v", r.res)
	}
	r.record(58, 58, checkSolve(&krylov.Result{}, 1))
	if r.res.Correct || r.res.Attempted != 61 || r.res.Failed != 58 {
		t.Fatalf("failed solve: %+v", r.res)
	}
	r = newReport()
	r.record(5, 0, nil)
	in := &instance{accuracy: func() (float64, float64, error) { return 1, 2, checkBudget(2, 1) }}
	r.checkAccuracy(in)
	if r.res.Correct || r.res.Failed != 5 {
		t.Fatalf("failed accuracy check: %+v", r.res)
	}
}
