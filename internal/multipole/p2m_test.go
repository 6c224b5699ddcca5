package multipole

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"treecode/internal/harmonics"
	"treecode/internal/vec"
)

// twoPassP2M is AddParticleAt as two passes: a harmonics.Regular table of
// pos - Center, then q*conj(R) added into every coefficient. It is the
// reference the fused kernel must reproduce bit for bit.
func twoPassP2M(e *Expansion, pos vec.V3, q float64) {
	d := pos.Sub(e.Center)
	r := harmonics.Regular(nil, d, e.Degree)
	for i, c := range r {
		e.Coeff[i] += complex(q, 0) * cmplx.Conj(c)
	}
	e.AbsCharge += math.Abs(q)
	if rad := d.Norm(); rad > e.Radius {
		e.Radius = rad
	}
}

// finiteBitsEqual is bitsEqual over the entries where want is finite.
func finiteBitsEqual(got, want []complex128) (int, bool) {
	g := append([]complex128(nil), got...)
	w := append([]complex128(nil), want...)
	for i, c := range w {
		if math.IsNaN(real(c)) || math.IsInf(real(c), 0) || math.IsNaN(imag(c)) || math.IsInf(imag(c), 0) {
			g[i], w[i] = 0, 0
		}
	}
	return bitsEqual(g, w)
}

// checkP2M adds the particles to a fresh degree-p expansion about center
// through AddParticleAt and through twoPassP2M and compares coefficients
// and cluster statistics.
func checkP2M(t *testing.T, center vec.V3, p int, pos []vec.V3, q []float64) {
	t.Helper()
	got, want := NewExpansion(center, p), NewExpansion(center, p)
	for i, x := range pos {
		got.AddParticleAt(x, q[i], nil)
		twoPassP2M(want, x, q[i])
	}
	if i, ok := finiteBitsEqual(got.Coeff, want.Coeff); !ok {
		t.Fatalf("P2M degree %d about %v of %v: coefficient %d is %v, two-pass %v", p, center, pos, i, got.Coeff[i], want.Coeff[i])
	}
	if math.Float64bits(got.AbsCharge) != math.Float64bits(want.AbsCharge) ||
		math.Float64bits(got.Radius) != math.Float64bits(want.Radius) {
		t.Fatalf("P2M degree %d about %v: statistics (%v, %v), two-pass (%v, %v)", p, center, got.AbsCharge, got.Radius, want.AbsCharge, want.Radius)
	}
}

// TestAddParticleAtMatchesTwoPass pins the fused P2M to the two-pass form
// at degrees 0-30: random clusters over cluster sizes from 1e-300 to 1e100,
// plus particles at the center (every coefficient but M_0^0 an exact zero),
// on the z axis (every m > 0 coefficient zero) and on the x and y axes.
func TestAddParticleAtMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	center := vec.V3{X: 0.2, Y: -0.1, Z: 0.3}
	for p := 0; p <= 30; p++ {
		for _, size := range []float64{1e-300, 1e-5, 0.01, 0.3, 1, 3, 1e5, 1e100} {
			pos, q := randomCluster(rng, 12, center, size)
			pos = append(pos,
				center,
				center.Add(vec.V3{Z: size}),
				center.Add(vec.V3{Z: -0.5 * size}),
				center.Add(vec.V3{X: size}),
				center.Add(vec.V3{Y: -size}),
			)
			q = append(q, 1, -0.5, 0.25, 2, -1)
			checkP2M(t, center, p, pos, q)
		}
	}
}

// FuzzAddParticleAt: an arbitrary particle position and charge, expansion
// center and degree 0-30. The particle is added twice, so the second call
// accumulates into non-zero coefficients; every coefficient must be
// bitwise the two-pass form's wherever that is finite.
func FuzzAddParticleAt(f *testing.F) {
	f.Add(0.3, -0.2, 0.7, 1.0, 0.0, 0.0, 0.0, 8)
	f.Add(0.0, 0.0, 1.0, -2.0, 0.0, 0.0, 0.5, 13)
	f.Add(1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 30)
	f.Add(1e-300, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 30)
	f.Add(1e200, -1e200, 1e200, 1.0, 0.0, 0.0, 0.0, 4)
	f.Fuzz(func(t *testing.T, px, py, pz, q, cx, cy, cz float64, k int) {
		p := k % 31
		if p < 0 {
			p = -p
		}
		x := vec.V3{X: px, Y: py, Z: pz}
		checkP2M(t, vec.V3{X: cx, Y: cy, Z: cz}, p, []vec.V3{x, x}, []float64{q, q})
	})
}
