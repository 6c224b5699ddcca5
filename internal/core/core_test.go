package core

import (
	"math"
	"testing"

	"treecode/internal/direct"
	"treecode/internal/points"
	"treecode/internal/stats"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

func relErr(got, want []float64) float64 { return stats.RelErr2(got, want) }

func mustEval(t *testing.T, set *points.Set, cfg Config) *Evaluator {
	t.Helper()
	e, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOriginalMatchesDirectWithinBound(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 2000, 1)
	want := direct.SelfPotentials(set, 0)
	for _, p := range []int{2, 4, 8} {
		e := mustEval(t, set, Config{Method: Original, Degree: p, Alpha: 0.5})
		got, st := e.Potentials()
		if st.PC == 0 || st.PP == 0 {
			t.Fatalf("p=%d: degenerate interaction stats %+v", p, st)
		}
		// Per-target error must be below the accumulated per-interaction
		// bounds in aggregate (BoundSum sums all targets' bounds).
		var totalErr float64
		for i := range got {
			totalErr += math.Abs(got[i] - want[i])
		}
		if totalErr > st.BoundSum*(1+1e-9) {
			t.Fatalf("p=%d: total error %v exceeds bound sum %v", p, totalErr, st.BoundSum)
		}
		// And the relative error should shrink with degree.
		re := relErr(got, want)
		if re > 0.05 {
			t.Fatalf("p=%d: relative error %v too large", p, re)
		}
	}
}

func TestErrorDecreasesWithDegree(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 1500, 2)
	want := direct.SelfPotentials(set, 0)
	prev := math.Inf(1)
	for _, p := range []int{1, 3, 5, 7} {
		e := mustEval(t, set, Config{Method: Original, Degree: p})
		got, _ := e.Potentials()
		re := relErr(got, want)
		if re > prev*1.5 {
			t.Fatalf("error grew with degree: p=%d err=%v prev=%v", p, re, prev)
		}
		prev = re
	}
	if prev > 1e-4 {
		t.Fatalf("p=7 error too large: %v", prev)
	}
}

func TestAdaptiveBeatsOriginalError(t *testing.T) {
	// The paper's headline: at (nearly) equal term counts, the adaptive
	// method has smaller error; equivalently at equal pMin it has much
	// smaller error for modest extra terms.
	for _, dist := range []points.Distribution{points.Uniform, points.Gaussian, points.MultiGauss} {
		set, _ := points.Generate(dist, 3000, 3)
		want := direct.SelfPotentials(set, 0)

		orig := mustEval(t, set, Config{Method: Original, Degree: 3, Alpha: 0.6})
		gotO, stO := orig.Potentials()
		adpt := mustEval(t, set, Config{Method: Adaptive, Degree: 3, Alpha: 0.6})
		gotA, stA := adpt.Potentials()

		errO := relErr(gotO, want)
		errA := relErr(gotA, want)
		if errA >= errO {
			t.Errorf("%s: adaptive error %v not below original %v", dist, errA, errO)
		}
		if stA.MaxDegree <= stO.MaxDegree {
			t.Errorf("%s: adaptive should use higher degrees somewhere", dist)
		}
		ratio := float64(stA.Terms) / float64(stO.Terms)
		if ratio > 6 {
			t.Errorf("%s: adaptive term ratio %v unreasonably large", dist, ratio)
		}
		t.Logf("%s: err orig=%.3g new=%.3g, terms orig=%d new=%d (ratio %.2f)",
			dist, errO, errA, stO.Terms, stA.Terms, ratio)
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	set, _ := points.Generate(points.Gaussian, 2000, 4)
	e1 := mustEval(t, set, Config{Method: Adaptive, Workers: 1})
	e8 := mustEval(t, set, Config{Method: Adaptive, Workers: 8})
	p1, s1 := e1.Potentials()
	p8, s8 := e8.Potentials()
	for i := range p1 {
		if p1[i] != p8[i] {
			t.Fatalf("worker count changed potential %d: %v vs %v", i, p1[i], p8[i])
		}
	}
	if s1.Terms != s8.Terms || s1.PP != s8.PP || s1.PC != s8.PC {
		t.Fatalf("worker count changed stats: %+v vs %+v", s1, s8)
	}
}

func TestPotentialsAt(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 1000, 5)
	e := mustEval(t, set, Config{Degree: 8, Alpha: 0.4})
	targets := []vec.V3{
		{X: 2, Y: 2, Z: 2},
		{X: -1, Y: 0.5, Z: 0.5},
		{X: 0.5, Y: 0.5, Z: 3},
	}
	got, _ := e.PotentialsAt(targets)
	want := direct.Potentials(set.Particles, targets, 0)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Errorf("target %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestFieldsMatchDirect(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 800, 6)
	e := mustEval(t, set, Config{Degree: 8, Alpha: 0.4})
	phi, field, _ := e.Fields()
	wantPhi, wantField := direct.SelfFields(set, 0)
	if re := relErr(phi, wantPhi); re > 1e-5 {
		t.Fatalf("field potential error %v", re)
	}
	var num, den float64
	for i := range field {
		num += field[i].Sub(wantField[i]).Norm2()
		den += wantField[i].Norm2()
	}
	if math.Sqrt(num/den) > 1e-4 {
		t.Fatalf("field error %v", math.Sqrt(num/den))
	}
	// Potentials from Fields agree with Potentials.
	phi2, _ := e.Potentials()
	for i := range phi {
		if math.Abs(phi[i]-phi2[i]) > 1e-12*(1+math.Abs(phi[i])) {
			t.Fatal("Fields and Potentials disagree on phi")
		}
	}
}

func TestSetCharges(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 1000, 7)
	e := mustEval(t, set, Config{Method: Adaptive, Degree: 5})
	// Doubling all charges doubles all potentials.
	base, _ := e.Potentials()
	q := make([]float64, set.N())
	for i := range q {
		q[i] = 2 * set.Particles[i].Charge
	}
	if err := e.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	doubled, _ := e.Potentials()
	for i := range base {
		if math.Abs(doubled[i]-2*base[i]) > 1e-9*(1+math.Abs(base[i])) {
			t.Fatalf("charge doubling failed at %d: %v vs %v", i, doubled[i], 2*base[i])
		}
	}
	// New arbitrary charges match direct.
	for i := range q {
		q[i] = math.Sin(float64(i))
	}
	if err := e.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	got, _ := e.Potentials()
	set2 := set.Clone()
	for i := range q {
		set2.Particles[i].Charge = q[i]
	}
	want := direct.SelfPotentials(set2, 0)
	if re := relErr(got, want); re > 1e-3 {
		t.Fatalf("SetCharges accuracy: %v", re)
	}
	// Wrong length errors.
	if err := e.SetCharges(q[:10]); err == nil {
		t.Fatal("short charge slice should error")
	}
}

func TestVisitInteractionsCoversEveryParticleOnce(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 500, 8)
	e := mustEval(t, set, Config{Degree: 4, Alpha: 0.5})
	tr := e.Tree
	for _, ti := range []int{0, 100, 499} {
		covered := make([]int, set.N()) // how many times each source is accounted for
		e.VisitInteractions(tr.Pos[ti], ti, func(n *tree.Node, degree int) {
			for j := n.Start; j < n.End; j++ {
				covered[j]++
			}
			if degree != n.Degree {
				t.Fatal("degree mismatch")
			}
		}, func(j int) {
			covered[j]++
		})
		for j := range covered {
			want := 1
			if j == ti {
				want = 0
			}
			if covered[j] != want {
				t.Fatalf("target %d: source %d covered %d times, want %d", ti, j, covered[j], want)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 10, 9)
	if _, err := New(set, Config{Alpha: 1.5}); err == nil {
		t.Error("alpha > 1 should fail")
	}
	if _, err := New(set, Config{Alpha: -0.1}); err == nil {
		t.Error("negative alpha should fail")
	}
	if _, err := New(set, Config{Alpha: math.NaN()}); err == nil {
		t.Error("NaN alpha should fail")
	}
	if _, err := New(set, Config{RefQuantile: math.NaN()}); err == nil {
		t.Error("NaN reference quantile should fail")
	}
	if _, err := New(set, Config{Degree: -2}); err == nil {
		t.Error("negative degree should fail")
	}
	for _, eps := range []float64{math.NaN(), -1, math.Inf(1)} {
		if _, err := New(set, Config{Soften: eps}); err == nil {
			t.Errorf("softening %v should fail", eps)
		}
	}
	if _, err := New(&points.Set{}, Config{}); err == nil {
		t.Error("empty set should fail")
	}
}

func TestStatsSanity(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 3000, 10)
	e := mustEval(t, set, Config{Method: Original, Degree: 4, Alpha: 0.5})
	_, st := e.Potentials()
	n := int64(set.N())
	// Terms = PC * (p+1)^2 for the fixed-degree method.
	if st.Terms != st.PC*25 {
		t.Errorf("terms %d != PC %d * 25", st.Terms, st.PC)
	}
	// PP pairs bounded by n*(n-1); PC bounded by n * nodes.
	if st.PP <= 0 || st.PP >= n*(n-1) {
		t.Errorf("PP = %d out of range", st.PP)
	}
	if st.MaxDegree != 4 {
		t.Errorf("MaxDegree = %d", st.MaxDegree)
	}
	if st.TreeHeight <= 0 || st.TreeNodes <= 0 || st.TreeLeaves <= 0 {
		t.Errorf("tree stats missing: %+v", st)
	}
	if st.UpwardTerms <= 0 {
		t.Error("UpwardTerms missing")
	}
	if st.EvalTime <= 0 {
		t.Error("EvalTime missing")
	}
}

func TestMethodString(t *testing.T) {
	if Original.String() != "original" || Adaptive.String() != "adaptive" {
		t.Error("Method.String")
	}
}

func TestSmallSystems(t *testing.T) {
	// Two particles: treecode must reduce to the exact answer.
	set := &points.Set{Particles: []points.Particle{
		{Pos: vec.V3{X: 0.1, Y: 0.1, Z: 0.1}, Charge: 1},
		{Pos: vec.V3{X: 0.9, Y: 0.9, Z: 0.9}, Charge: 2},
	}}
	e := mustEval(t, set, Config{Degree: 4})
	got, _ := e.Potentials()
	r := set.Particles[0].Pos.Dist(set.Particles[1].Pos)
	if math.Abs(got[0]-2/r) > 1e-12 || math.Abs(got[1]-1/r) > 1e-12 {
		t.Fatalf("two-body potentials wrong: %v", got)
	}
	// One particle: zero potential.
	single := &points.Set{Particles: set.Particles[:1]}
	e1 := mustEval(t, single, Config{})
	p1, _ := e1.Potentials()
	if p1[0] != 0 {
		t.Fatalf("self potential should be 0, got %v", p1[0])
	}
}

func TestCoincidentParticles(t *testing.T) {
	// Exactly coincident particles must not produce Inf/NaN.
	set := &points.Set{Particles: []points.Particle{
		{Pos: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, Charge: 1},
		{Pos: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, Charge: 1},
		{Pos: vec.V3{X: 0.6, Y: 0.5, Z: 0.5}, Charge: 1},
	}}
	e := mustEval(t, set, Config{Degree: 3})
	got, _ := e.Potentials()
	for i, p := range got {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("potential %d = %v", i, p)
		}
	}
}

// TestSoftenedNearField pins the Plummer law of the near field: pairs in
// one leaf interact through 1/sqrt(r²+ε²) in potentials and fields, walk
// and batched alike, and a coincident pair contributes q/ε with no field.
func TestSoftenedNearField(t *testing.T) {
	const eps = 0.05
	set := &points.Set{Particles: []points.Particle{
		{Pos: vec.V3{X: 0.1, Y: 0.2, Z: 0.3}, Charge: 1},
		{Pos: vec.V3{X: 0.2, Y: 0.1, Z: 0.3}, Charge: 2},
		{Pos: vec.V3{X: 0.2, Y: 0.1, Z: 0.3}, Charge: 3},
	}}
	for _, mode := range []EvalMode{EvalWalk, EvalBatched} {
		e := mustEval(t, set, Config{Degree: 4, Eval: mode, Soften: eps})
		phi, field, _ := e.Fields()
		pot, _ := e.Potentials()
		for i, pi := range set.Particles {
			var wantPhi float64
			var wantField vec.V3
			for j, pj := range set.Particles {
				if j == i {
					continue
				}
				d := pi.Pos.Sub(pj.Pos)
				r2 := d.Norm2() + eps*eps
				wantPhi += pj.Charge / math.Sqrt(r2)
				wantField = wantField.Add(d.Scale(pj.Charge / (r2 * math.Sqrt(r2))))
			}
			if math.Abs(phi[i]-wantPhi) > 1e-12*wantPhi || math.Abs(pot[i]-wantPhi) > 1e-12*wantPhi {
				t.Fatalf("%s: particle %d potential %v (fields) %v (potentials), want %v", mode, i, phi[i], pot[i], wantPhi)
			}
			if field[i].Sub(wantField).Norm() > 1e-12*wantField.Norm() {
				t.Fatalf("%s: particle %d field %v, want %v", mode, i, field[i], wantField)
			}
		}
	}
}

func TestAdaptiveDegreeMonotoneUpTree(t *testing.T) {
	// For uniform-sign charges, net charge grows strictly up the tree, so
	// adaptive degrees must be non-decreasing from child to parent.
	set, _ := points.Generate(points.Uniform, 4000, 11)
	e := mustEval(t, set, Config{Method: Adaptive, Degree: 4, Alpha: 0.5})
	e.Tree.Walk(func(n *tree.Node) {
		for _, c := range n.Children {
			// Parent ratio A/s >= child ratio * (A_p/A_c)/2 -- with uniform
			// signs A_p >= A_c so allow equality but never a big drop.
			if n.Degree < c.Degree-1 {
				t.Fatalf("parent degree %d far below child degree %d", n.Degree, c.Degree)
			}
		}
	})
}

func BenchmarkOriginal10k(b *testing.B) {
	set, _ := points.Generate(points.Uniform, 10000, 1)
	e, err := New(set, Config{Method: Original, Degree: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Potentials()
	}
}

func BenchmarkAdaptive10k(b *testing.B) {
	set, _ := points.Generate(points.Uniform, 10000, 1)
	e, err := New(set, Config{Method: Adaptive, Degree: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Potentials()
	}
}
