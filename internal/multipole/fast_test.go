package multipole

import (
	"math"
	"math/rand"
	"testing"

	"treecode/internal/rotation"
	"treecode/internal/vec"
)

func coeffsClose(t *testing.T, label string, got, want []complex128, tol float64) {
	t.Helper()
	var e, n float64
	for k := range want {
		d := got[k] - want[k]
		e += real(d)*real(d) + imag(d)*imag(d)
		n += real(want[k])*real(want[k]) + imag(want[k])*imag(want[k])
	}
	if math.Sqrt(e/(1+n)) > tol {
		t.Fatalf("%s: coefficient distance %v", label, math.Sqrt(e/(1+n)))
	}
}

// The rotation-accelerated operators are the same mathematical maps as the
// O(p^4) convolutions; their outputs must agree to rounding.
func TestTranslateRotMatchesTranslate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []int{3, 8, 14} {
		pos, q := randomCluster(rng, 30, vec.V3{X: 1, Y: 2, Z: 0.5}, 0.4)
		e := P2M(pos, q, vec.V3{X: 1, Y: 2, Z: 0.5}, p)
		for trial := 0; trial < 5; trial++ {
			dst := vec.V3{
				X: 1 + rng.NormFloat64(),
				Y: 2 + rng.NormFloat64(),
				Z: 0.5 + rng.NormFloat64(),
			}
			slow := e.Translate(dst, p)
			fast := e.TranslateRot(dst, p, nil)
			coeffsClose(t, "M2M", fast.Coeff, slow.Coeff, 1e-11)
			if math.Abs(fast.Radius-slow.Radius) > 1e-12 || fast.AbsCharge != slow.AbsCharge {
				t.Fatal("M2M stats mismatch")
			}
		}
	}
}

// M2LRot is M2L: whatever plan it is handed, its coefficients are M2L's to
// the bit.
func TestM2LRotMatchesM2L(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []int{4, 10, 16} {
		pos, q := randomCluster(rng, 30, vec.V3{}, 0.5)
		e := P2M(pos, q, vec.V3{}, p)
		for trial := 0; trial < 5; trial++ {
			dst := vec.FromSpherical(3+2*rng.Float64(),
				math.Acos(2*rng.Float64()-1), 2*math.Pi*rng.Float64())
			want := e.M2L(dst, p)
			for _, plan := range []*rotation.Plan{nil, rotation.NewPlan(p, 0.4)} {
				if i, ok := bitsEqual(e.M2LRot(dst, p, plan).Coeff, want.Coeff); !ok {
					t.Fatalf("p=%d: M2LRot coefficient %d differs from M2L", p, i)
				}
			}
		}
	}
}

func TestLocalTranslateRotMatchesTranslate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const p = 10
	pos, q := randomCluster(rng, 30, vec.V3{}, 0.5)
	e := P2M(pos, q, vec.V3{}, p)
	z := vec.V3{X: 4, Y: -1, Z: 2}
	l := e.M2L(z, p)
	for trial := 0; trial < 5; trial++ {
		dst := z.Add(vec.V3{
			X: 0.3 * rng.NormFloat64(),
			Y: 0.3 * rng.NormFloat64(),
			Z: 0.3 * rng.NormFloat64(),
		})
		slow := l.Translate(dst, p)
		fast := l.TranslateRot(dst, p, nil)
		coeffsClose(t, "L2L", fast.Coeff, slow.Coeff, 1e-11)
	}
}

func TestRotZeroShift(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pos, q := randomCluster(rng, 10, vec.V3{}, 0.5)
	e := P2M(pos, q, vec.V3{}, 6)
	same := e.TranslateRot(e.Center, 6, nil)
	coeffsClose(t, "M2M zero shift", same.Coeff, e.Coeff, 1e-15)
	l := e.M2L(vec.V3{X: 3}, 6)
	samL := l.TranslateRot(l.Center, 6, nil)
	coeffsClose(t, "L2L zero shift", samL.Coeff, l.Coeff, 1e-15)
}

func TestRotWithSharedPlan(t *testing.T) {
	// Translations along the same polar angle can share one plan.
	rng := rand.New(rand.NewSource(5))
	const p = 8
	pos, q := randomCluster(rng, 20, vec.V3{}, 0.5)
	e := P2M(pos, q, vec.V3{}, p)
	// The M2M shift vector is e.Center - dst, so the plan angle is the
	// polar angle of -dst.
	dst := vec.FromSpherical(2, 0.9, 1.1)
	_, theta, _ := e.Center.Sub(dst).Spherical()
	plan := rotation.NewPlan(p, theta)
	fast := e.TranslateRot(dst, p, plan)
	slow := e.Translate(dst, p)
	coeffsClose(t, "M2M shared plan", fast.Coeff, slow.Coeff, 1e-11)
	// Another destination with the same theta, different phi.
	dst2 := vec.FromSpherical(2, 0.9, -2.3)
	fast2 := e.TranslateRot(dst2, p, plan)
	slow2 := e.Translate(dst2, p)
	coeffsClose(t, "M2M shared plan 2", fast2.Coeff, slow2.Coeff, 1e-11)
	// M2L: the shift is dst - e.Center, so theta is dst's own polar angle.
	planL := rotation.NewPlan(p, 0.9)
	lFast := e.M2LRot(vec.FromSpherical(4, 0.9, 0.3), p, planL)
	lSlow := e.M2L(vec.FromSpherical(4, 0.9, 0.3), p)
	coeffsClose(t, "M2L shared plan", lFast.Coeff, lSlow.Coeff, 1e-10)
}

func TestRotDegreeChange(t *testing.T) {
	// pOut < pSrc truncates identically in both paths.
	rng := rand.New(rand.NewSource(6))
	pos, q := randomCluster(rng, 20, vec.V3{}, 0.5)
	e := P2M(pos, q, vec.V3{}, 12)
	dst := vec.V3{X: 1, Y: 1, Z: 1}
	slow := e.Translate(dst, 6)
	fast := e.TranslateRot(dst, 6, nil)
	coeffsClose(t, "M2M truncating", fast.Coeff, slow.Coeff, 1e-11)
	lSlow := e.M2L(vec.V3{X: 5, Y: 1, Z: 2}, 7)
	lFast := e.M2LRot(vec.V3{X: 5, Y: 1, Z: 2}, 7, nil)
	coeffsClose(t, "M2L truncating", lFast.Coeff, lSlow.Coeff, 1e-10)
}

func BenchmarkM2LP16(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pos, q := randomCluster(rng, 30, vec.V3{}, 0.5)
	e := P2M(pos, q, vec.V3{}, 16)
	dst := vec.V3{X: 4, Y: 1, Z: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.M2L(dst, 16)
	}
}
