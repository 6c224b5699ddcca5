package multipole

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"treecode/internal/harmonics"
	"treecode/internal/vec"
)

// directPotential is the exact reference.
func directPotential(pos []vec.V3, q []float64, x vec.V3) float64 {
	var phi float64
	for i, p := range pos {
		phi += q[i] / x.Dist(p)
	}
	return phi
}

func directField(pos []vec.V3, q []float64, x vec.V3) vec.V3 {
	var g vec.V3
	for i, p := range pos {
		d := x.Sub(p)
		r := d.Norm()
		// grad of q/|x-p| = -q (x-p)/r^3
		g = g.Add(d.Scale(-q[i] / (r * r * r)))
	}
	return g
}

// randomCluster returns n charges in a ball of the given radius about center.
func randomCluster(rng *rand.Rand, n int, center vec.V3, radius float64) ([]vec.V3, []float64) {
	pos := make([]vec.V3, n)
	q := make([]float64, n)
	for i := range pos {
		for {
			d := vec.V3{
				X: radius * (2*rng.Float64() - 1),
				Y: radius * (2*rng.Float64() - 1),
				Z: radius * (2*rng.Float64() - 1),
			}
			if d.Norm() <= radius {
				pos[i] = center.Add(d)
				break
			}
		}
		q[i] = 2*rng.Float64() - 1
	}
	return pos, q
}

func TestP2MEvaluateAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	center := vec.V3{X: 0.5, Y: 0.5, Z: 0.5}
	pos, q := randomCluster(rng, 50, center, 0.2)
	e := P2M(pos, q, center, 20)
	for i := 0; i < 100; i++ {
		x := vec.FromSpherical(0.8+2*rng.Float64(), math.Acos(2*rng.Float64()-1),
			2*math.Pi*rng.Float64()).Add(center)
		got := e.Evaluate(x, e.Degree)
		want := directPotential(pos, q, x)
		bound := e.Bound(x.Dist(center))
		if math.Abs(got-want) > bound+1e-12 {
			t.Fatalf("M2P error %v exceeds bound %v at distance %v",
				math.Abs(got-want), bound, x.Dist(center))
		}
		// At p=20 and r/a >= 4 the result should be near machine precision.
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("M2P too inaccurate: got %v want %v", got, want)
		}
	}
}

// Property: for random clusters, degrees, and eval points, the truncation
// error never exceeds the Theorem 1 bound.
func TestErrorBoundProperty(t *testing.T) {
	type input struct {
		seed   int64
		p      int
		factor float64 // r/a
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(args []reflect.Value, rng *rand.Rand) {
			args[0] = reflect.ValueOf(input{
				seed:   rng.Int63(),
				p:      rng.Intn(12),
				factor: 1.3 + 4*rng.Float64(),
			})
		},
	}
	f := func(in input) bool {
		rng := rand.New(rand.NewSource(in.seed))
		center := vec.V3{}
		pos, q := randomCluster(rng, 30, center, 1)
		e := P2M(pos, q, center, in.p)
		x := vec.FromSpherical(in.factor*e.Radius+1e-9,
			math.Acos(2*rng.Float64()-1), 2*math.Pi*rng.Float64())
		got := e.Evaluate(x, in.p)
		want := directPotential(pos, q, x)
		bound := e.Bound(x.Norm())
		return math.Abs(got-want) <= bound*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// M2M is exact: translating a degree-p expansion equals building it directly
// about the new center.
func TestM2MExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const p = 8
	for trial := 0; trial < 20; trial++ {
		c1 := vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		c2 := c1.Add(vec.V3{X: 0.5 * rng.NormFloat64(), Y: 0.5 * rng.NormFloat64(), Z: 0.5 * rng.NormFloat64()})
		pos, q := randomCluster(rng, 25, c1, 0.3)
		e1 := P2M(pos, q, c1, p)
		moved := e1.Translate(c2, p)
		direct := P2M(pos, q, c2, p)
		for i := range moved.Coeff {
			d := moved.Coeff[i] - direct.Coeff[i]
			if math.Hypot(real(d), imag(d)) > 1e-10*(1+math.Hypot(real(direct.Coeff[i]), imag(direct.Coeff[i]))) {
				t.Fatalf("M2M not exact at index %d: %v vs %v", i, moved.Coeff[i], direct.Coeff[i])
			}
		}
		if moved.AbsCharge != e1.AbsCharge {
			t.Error("M2M should preserve AbsCharge")
		}
		if moved.Radius < direct.Radius-1e-12 {
			t.Error("M2M radius must remain an upper bound on the true radius")
		}
	}
}

func TestM2LAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const p = 16
	srcCenter := vec.V3{}
	pos, q := randomCluster(rng, 40, srcCenter, 0.5)
	e := P2M(pos, q, srcCenter, p)
	locCenter := vec.V3{X: 3, Y: 0.5, Z: -1}
	l := e.M2L(locCenter, p)
	for i := 0; i < 100; i++ {
		x := locCenter.Add(vec.V3{
			X: 0.3 * (2*rng.Float64() - 1),
			Y: 0.3 * (2*rng.Float64() - 1),
			Z: 0.3 * (2*rng.Float64() - 1),
		})
		got := l.Evaluate(x)
		want := directPotential(pos, q, x)
		if math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
			t.Fatalf("M2L+L2P: got %v want %v at %v", got, want, x)
		}
	}
}

func TestL2LExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const p = 10
	pos, q := randomCluster(rng, 40, vec.V3{}, 0.5)
	e := P2M(pos, q, vec.V3{}, 2*p)
	z1 := vec.V3{X: 4, Y: 1, Z: 2}
	l1 := e.M2L(z1, p)
	z2 := z1.Add(vec.V3{X: 0.2, Y: -0.1, Z: 0.15})
	l2 := l1.Translate(z2, p)
	// L2L of the truncated series is exact as a polynomial identity for the
	// terms it keeps: evaluating l2 near z2 should match l1 to rounding for
	// points where both series apply... but truncation differs. Instead test
	// the polynomial-identity route: a degree-p local expansion translated
	// twice (there and back) reproduces low-degree coefficients of the
	// original exactly up to the terms dropped. Strongest cheap check:
	// translation by zero is the identity.
	id := l1.Translate(z1, p)
	for i := range id.Coeff {
		d := id.Coeff[i] - l1.Coeff[i]
		if math.Hypot(real(d), imag(d)) > 1e-12*(1+math.Hypot(real(l1.Coeff[i]), imag(l1.Coeff[i]))) {
			t.Fatalf("L2L by zero changed coefficient %d", i)
		}
	}
	// And l2 must still approximate the true potential well near z2.
	for i := 0; i < 50; i++ {
		x := z2.Add(vec.V3{
			X: 0.1 * (2*rng.Float64() - 1),
			Y: 0.1 * (2*rng.Float64() - 1),
			Z: 0.1 * (2*rng.Float64() - 1),
		})
		got := l2.Evaluate(x)
		want := directPotential(pos, q, x)
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("translated local expansion inaccurate: %v vs %v", got, want)
		}
	}
}

// addP2L accumulates the local expansion of one distant charge into l:
// q/|x − pos| = q Σ conj(R(x − c)) S(pos − c) for |x − c| < |pos − c|, so
// L_j^k += q S_j^k(pos − c).
func addP2L(l *Local, pos vec.V3, q float64) {
	for i, c := range harmonics.Irregular(nil, pos.Sub(l.Center), l.Degree) {
		l.Coeff[i] += complex(q, 0) * c
	}
}

// TestP2L pins Local.Evaluate's convention against exact single-charge
// local expansions.
func TestP2L(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	center := vec.V3{X: 1, Y: 2, Z: 3}
	l := NewLocal(center, 14)
	pos, q := randomCluster(rng, 20, vec.V3{X: 6, Y: 2, Z: 3}, 0.5)
	for i := range pos {
		addP2L(l, pos[i], q[i])
	}
	for i := 0; i < 50; i++ {
		x := center.Add(vec.V3{
			X: 0.4 * (2*rng.Float64() - 1),
			Y: 0.4 * (2*rng.Float64() - 1),
			Z: 0.4 * (2*rng.Float64() - 1),
		})
		got := l.Evaluate(x)
		want := directPotential(pos, q, x)
		if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("P2L inaccurate: %v vs %v", got, want)
		}
	}
}

func TestM2PFieldAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	center := vec.V3{}
	pos, q := randomCluster(rng, 30, center, 0.4)
	e := P2M(pos, q, center, 18)
	for i := 0; i < 50; i++ {
		x := vec.FromSpherical(1.5+rng.Float64(), math.Acos(2*rng.Float64()-1), 2*math.Pi*rng.Float64())
		phi, grad := e.EvaluateField(x, e.Degree)
		wantPhi := directPotential(pos, q, x)
		wantGrad := directField(pos, q, x)
		if math.Abs(phi-wantPhi) > 1e-8*(1+math.Abs(wantPhi)) {
			t.Fatalf("field potential: %v vs %v", phi, wantPhi)
		}
		if grad.Sub(wantGrad).Norm() > 1e-7*(1+wantGrad.Norm()) {
			t.Fatalf("M2P gradient: %v vs %v", grad, wantGrad)
		}
		// Potential from EvaluateField matches Evaluate.
		if math.Abs(phi-e.Evaluate(x, e.Degree)) > 1e-12*(1+math.Abs(phi)) {
			t.Fatal("EvaluateField and Evaluate disagree")
		}
	}
}

func TestL2PFieldAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pos, q := randomCluster(rng, 30, vec.V3{}, 0.5)
	e := P2M(pos, q, vec.V3{}, 20)
	z := vec.V3{X: 3, Y: -1, Z: 2}
	l := e.M2L(z, 20)
	for i := 0; i < 50; i++ {
		x := z.Add(vec.V3{
			X: 0.3 * (2*rng.Float64() - 1),
			Y: 0.3 * (2*rng.Float64() - 1),
			Z: 0.3 * (2*rng.Float64() - 1),
		})
		phi, grad := l.EvaluateField(x)
		wantPhi := directPotential(pos, q, x)
		wantGrad := directField(pos, q, x)
		if math.Abs(phi-wantPhi) > 1e-6*(1+math.Abs(wantPhi)) {
			t.Fatalf("L2P potential: %v vs %v", phi, wantPhi)
		}
		if grad.Sub(wantGrad).Norm() > 1e-5*(1+wantGrad.Norm()) {
			t.Fatalf("L2P gradient: %v vs %v", grad, wantGrad)
		}
	}
}

func TestEvaluateDegreeClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pos, q := randomCluster(rng, 10, vec.V3{}, 0.3)
	e := P2M(pos, q, vec.V3{}, 6)
	x := vec.V3{X: 2}
	if e.Evaluate(x, 100) != e.Evaluate(x, 6) {
		t.Error("degree clamp failed")
	}
	// Monopole-only evaluation equals Q/r.
	var Q float64
	for _, qi := range q {
		Q += qi
	}
	if got, want := e.Evaluate(x, 0), Q/x.Norm(); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
		t.Errorf("monopole term: %v vs %v", got, want)
	}
}

func TestClear(t *testing.T) {
	e := NewExpansion(vec.V3{}, 4)
	e.AddParticle(vec.V3{X: 0.1}, 1)
	e.Clear()
	for _, c := range e.Coeff {
		if c != 0 {
			t.Fatal("Clear left nonzero coefficients")
		}
	}
	if e.AbsCharge != 0 || e.Radius != 0 {
		t.Fatal("Clear left stats")
	}
	l := NewLocal(vec.V3{}, 4)
	addP2L(l, vec.V3{X: 2}, 1)
	l.Clear()
	for _, c := range l.Coeff {
		if c != 0 {
			t.Fatal("Local Clear left nonzero coefficients")
		}
	}
}

func TestTruncationBoundEdge(t *testing.T) {
	if !math.IsInf(TruncationBound(1, 1, 1, 3), 1) {
		t.Error("r <= a should give +Inf bound")
	}
	if !math.IsInf(TruncationBound(1, 2, 1, 3), 1) {
		t.Error("r < a should give +Inf bound")
	}
	b := TruncationBound(2, 1, 4, 3)
	want := 2.0 / 3 * math.Pow(0.25, 4)
	if math.Abs(b-want) > 1e-15 {
		t.Errorf("bound = %v want %v", b, want)
	}
}

func TestTerms(t *testing.T) {
	if Terms(0) != 1 || Terms(1) != 4 || Terms(7) != 64 {
		t.Error("Terms wrong")
	}
}

// The error should decay geometrically with p at fixed geometry — the shape
// behind the paper's degree-selection rule.
func TestErrorDecaysWithDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pos, q := randomCluster(rng, 40, vec.V3{}, 1)
	x := vec.V3{X: 3.2, Y: 0.4, Z: -0.7}
	want := directPotential(pos, q, x)
	prev := math.Inf(1)
	worse := 0
	for p := 0; p <= 14; p += 2 {
		e := P2M(pos, q, vec.V3{}, p)
		err := math.Abs(e.Evaluate(x, p) - want)
		if err > prev {
			worse++
		}
		prev = err
	}
	if worse > 1 {
		t.Errorf("error failed to decay with degree (%d increases)", worse)
	}
}

func BenchmarkP2M(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	pos, q := randomCluster(rng, 64, vec.V3{}, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		P2M(pos, q, vec.V3{}, 8)
	}
}

func BenchmarkM2P(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	pos, q := randomCluster(rng, 64, vec.V3{}, 0.5)
	e := P2M(pos, q, vec.V3{}, 8)
	x := vec.V3{X: 3, Y: 1, Z: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(x, 8)
	}
}

func BenchmarkM2L(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	pos, q := randomCluster(rng, 64, vec.V3{}, 0.5)
	e := P2M(pos, q, vec.V3{}, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.M2L(vec.V3{X: 3, Y: 1, Z: 2}, 8)
	}
}

// translationDegrees are the degrees of the accumulate-form benchmarks:
// fmm.Config's default degree, fmm-uniform's fixed degree and bem-sphere's
// carried root degree.
var translationDegrees = []int{4, 8, 13}

// BenchmarkM2M times one child-to-parent M2M of the upward pass at its
// documented scratch size.
func BenchmarkM2M(b *testing.B) {
	for _, p := range translationDegrees {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			rng := rand.New(rand.NewSource(14))
			pos, q := randomCluster(rng, 64, vec.V3{}, 0.2)
			src := P2M(pos, q, vec.V3{}, p)
			dst := NewExpansion(vec.V3{X: 0.05, Y: -0.03, Z: 0.08}, p)
			buf := make([]complex128, harmonics.Len(p))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.AccumulateTranslatedBuf(src, buf)
			}
		})
	}
}

// BenchmarkAccumulateM2L times one M2L of an FMM interaction list into the
// target's local at its documented scratch size.
func BenchmarkAccumulateM2L(b *testing.B) {
	for _, p := range translationDegrees {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			rng := rand.New(rand.NewSource(15))
			pos, q := randomCluster(rng, 64, vec.V3{}, 0.5)
			src := P2M(pos, q, vec.V3{}, p)
			l := NewLocal(vec.V3{X: 3, Y: 1, Z: 2}, p)
			buf := make([]complex128, M2LBufLen(p, p))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.AccumulateM2L(src, buf)
			}
		})
	}
}
