package fmm

import (
	"errors"
	"math"
	"testing"

	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/points"
	"treecode/internal/stats"
	"treecode/internal/vec"
)

func TestFMMMatchesDirect(t *testing.T) {
	for _, dist := range []points.Distribution{points.Uniform, points.Gaussian} {
		set, _ := points.Generate(dist, 3000, 1)
		want := direct.SelfPotentials(set, 0)
		e, err := New(set, Config{Method: core.Original, Degree: 8, Alpha: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		got, st := e.Potentials()
		re := stats.RelErr2(got, want)
		if re > 1e-4 {
			t.Errorf("%s: FMM relative error %v", dist, re)
		}
		if st.M2L == 0 || st.P2P == 0 {
			t.Errorf("%s: degenerate stats %+v", dist, st)
		}
	}
}

func TestFMMErrorDecaysWithDegree(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 2000, 2)
	want := direct.SelfPotentials(set, 0)
	prev := math.Inf(1)
	for _, p := range []int{2, 4, 6, 8} {
		e, err := New(set, Config{Degree: p, Alpha: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := e.Potentials()
		re := stats.RelErr2(got, want)
		if re > prev*1.2 {
			t.Fatalf("p=%d: error %v did not decay (prev %v)", p, re, prev)
		}
		prev = re
	}
	if prev > 1e-4 {
		t.Fatalf("p=8 error %v too large", prev)
	}
}

func TestAdaptiveFMMBeatsOriginal(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 4000, 3)
	want := direct.SelfPotentials(set, 0)
	orig, err := New(set, Config{Method: core.Original, Degree: 3, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	adpt, err := New(set, Config{Method: core.Adaptive, Degree: 3, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	gotO, stO := orig.Potentials()
	gotA, stA := adpt.Potentials()
	errO := stats.RelErr2(gotO, want)
	errA := stats.RelErr2(gotA, want)
	if errA >= errO {
		t.Errorf("adaptive FMM error %v not below original %v", errA, errO)
	}
	t.Logf("FMM err orig=%.3g new=%.3g cost orig=%d new=%d",
		errO, errA, stO.RelativeCost(), stA.RelativeCost())
}

func TestFMMAgreesWithTreecode(t *testing.T) {
	set, _ := points.Generate(points.MultiGauss, 3000, 4)
	f, err := New(set, Config{Degree: 8, Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := core.New(set, core.Config{Degree: 8, Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	pf, _ := f.Potentials()
	pt, _ := tc.Potentials()
	if re := stats.RelErr2(pf, pt); re > 1e-4 {
		t.Errorf("FMM and treecode disagree: %v", re)
	}
}

func TestLinearityInCharges(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 1000, 5)
	e, err := New(set, Config{Degree: 5})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := e.Potentials()
	scaled := set.Clone()
	for i := range scaled.Particles {
		scaled.Particles[i].Charge *= 3
	}
	e2, err := New(scaled, Config{Degree: 5})
	if err != nil {
		t.Fatal(err)
	}
	triple, _ := e2.Potentials()
	for i := range base {
		if math.Abs(triple[i]-3*base[i]) > 1e-9*(1+math.Abs(base[i])) {
			t.Fatalf("linearity failed at %d", i)
		}
	}
}

func TestFMMScalesBetterThanQuadratic(t *testing.T) {
	// Cost metric (P2P + M2L terms) should grow clearly sub-quadratically.
	cost := func(n int) float64 {
		set, _ := points.Generate(points.Uniform, n, 6)
		e, err := New(set, Config{Degree: 4, Alpha: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		_, st := e.Potentials()
		return float64(st.P2P) + float64(st.M2LTerms)
	}
	c1 := cost(2000)
	c2 := cost(8000)
	growth := c2 / c1 // quadratic would be 16, linear 4
	if growth > 9 {
		t.Errorf("FMM cost growth %v looks quadratic", growth)
	}
}

func TestFMMWorkerInvariance(t *testing.T) {
	set, _ := points.Generate(points.Gaussian, 3000, 8)
	e1, err := New(set, Config{Method: core.Adaptive, Degree: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e8, err := New(set, Config{Method: core.Adaptive, Degree: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	p1, s1 := e1.Potentials()
	p8, s8 := e8.Potentials()
	for i := range p1 {
		if p1[i] != p8[i] {
			t.Fatalf("worker count changed potential %d: %v vs %v", i, p1[i], p8[i])
		}
	}
	if s1.M2L != s8.M2L || s1.P2P != s8.P2P || s1.M2LTerms != s8.M2LTerms {
		t.Fatalf("worker count changed stats: %+v vs %+v", s1, s8)
	}
}

func TestFMMRepeatedEvaluation(t *testing.T) {
	// Potentials() must be callable repeatedly with identical results (the
	// task lists and locals are rebuilt per call).
	set, _ := points.Generate(points.Uniform, 1000, 9)
	e, err := New(set, Config{Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := e.Potentials()
	b, _ := e.Potentials()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("repeated evaluation differs")
		}
	}
}

// TestNewRejectsNonFinite: a non-finite charge fails construction rather
// than poisoning every expansion above its leaf.
func TestNewRejectsNonFinite(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 200, 5)
	set.Particles[17].Charge = math.Inf(1)
	if _, err := New(set, Config{}); !errors.Is(err, points.ErrNonFinite) {
		t.Fatalf("New returned %v, want ErrNonFinite", err)
	}
}

func TestConfigValidation(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 50, 7)
	if _, err := New(set, Config{Alpha: 2}); err == nil {
		t.Error("alpha out of range should fail")
	}
	if _, err := New(set, Config{Alpha: math.NaN()}); err == nil {
		t.Error("NaN alpha should fail")
	}
	if _, err := New(&points.Set{}, Config{}); err == nil {
		t.Error("empty set should fail")
	}
}

func TestTwoBodyExact(t *testing.T) {
	set := &points.Set{Particles: []points.Particle{
		{Pos: vec.V3{X: 0.1, Y: 0.2, Z: 0.3}, Charge: 2},
		{Pos: vec.V3{X: 0.8, Y: 0.7, Z: 0.9}, Charge: -1},
	}}
	e, err := New(set, Config{Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := e.Potentials()
	r := set.Particles[0].Pos.Dist(set.Particles[1].Pos)
	if math.Abs(got[0]+1/r) > 1e-12 || math.Abs(got[1]-2/r) > 1e-12 {
		t.Fatalf("two-body FMM wrong: %v", got)
	}
}

func TestEstimateError(t *testing.T) {
	// Higher degree must predict lower error; taller trees higher error.
	if EstimateError(0.5, 4, 5) <= EstimateError(0.5, 8, 5) {
		t.Error("EstimateError not decreasing in degree")
	}
	if EstimateError(0.5, 4, 9) <= EstimateError(0.5, 4, 5) {
		t.Error("EstimateError not increasing in height")
	}
}

func BenchmarkFMM10k(b *testing.B) {
	set, _ := points.Generate(points.Uniform, 10000, 1)
	e, err := New(set, Config{Degree: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Potentials()
	}
}

// TestFMMSetCharges exercises the recharge path: an identity recharge must
// reproduce the potentials bitwise, and doubling every charge must double
// every potential exactly (all the pipeline's operations are linear and
// scaling by a power of two is exact in binary floating point), proving
// the refreshed statistics and reused expansions carry the new charges
// correctly without rebuilding the tree.
func TestFMMSetCharges(t *testing.T) {
	set, err := points.GenerateCharged(points.Gaussian, 2500, 31, 2500, true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(set, Config{Method: core.Adaptive, Degree: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := e.Potentials()
	q := make([]float64, set.N())
	for i, p := range set.Particles {
		q[i] = p.Charge
	}
	if err := e.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	same, _ := e.Potentials()
	for i := range same {
		if same[i] != base[i] { //lint:ignore floatcmp identity recharge must not perturb a single bit
			t.Fatalf("identity recharge changed phi[%d]: %v -> %v", i, base[i], same[i])
		}
	}
	for i := range q {
		q[i] *= 2
	}
	if err := e.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	doubled, _ := e.Potentials()
	for i := range doubled {
		if doubled[i] != 2*base[i] { //lint:ignore floatcmp power-of-two scaling is exact, so linearity must hold bitwise
			t.Fatalf("doubling charges: phi[%d] = %v, want %v", i, doubled[i], 2*base[i])
		}
	}
	if err := e.SetCharges(q[:5]); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}
