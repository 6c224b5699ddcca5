package harmonics

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"treecode/internal/vec"
)

// regularComplex and irregularComplex are the recurrences of the package
// doc written in complex arithmetic, as Regular and Irregular once were.
// They are the reference the real-arithmetic tables must reproduce.
func regularComplex(v vec.V3, p int) []complex128 {
	dst := make([]complex128, Len(p))
	u := complex(v.X, v.Y) // rho sin(theta) e^{i phi}
	z := complex(v.Z, 0)
	rho2 := complex(v.Norm2(), 0)

	dst[0] = 1
	for m := 0; m <= p; m++ {
		im := Idx(m, m)
		if m > 0 {
			dst[im] = dst[Idx(m-1, m-1)] * -u / complex(float64(2*m), 0)
		}
		if m+1 <= p {
			dst[Idx(m+1, m)] = z * dst[im]
		}
		for n := m + 2; n <= p; n++ {
			dst[Idx(n, m)] = (complex(float64(2*n-1), 0)*z*dst[Idx(n-1, m)] -
				rho2*dst[Idx(n-2, m)]) / complex(float64((n-m)*(n+m)), 0)
		}
	}
	return dst
}

func irregularComplex(v vec.V3, p int) []complex128 {
	dst := make([]complex128, Len(p))
	u := complex(v.X, v.Y)
	z := complex(v.Z, 0)
	r2 := v.Norm2()
	invR2 := complex(1/r2, 0)

	dst[0] = complex(1/v.Norm(), 0)
	for m := 0; m <= p; m++ {
		im := Idx(m, m)
		if m > 0 {
			dst[im] = dst[Idx(m-1, m-1)] * -complex(float64(2*m-1), 0) * u * invR2
		}
		if m+1 <= p {
			dst[Idx(m+1, m)] = complex(float64(2*m+1), 0) * z * dst[im] * invR2
		}
		for n := m + 2; n <= p; n++ {
			dst[Idx(n, m)] = (complex(float64(2*n-1), 0)*z*dst[Idx(n-1, m)] -
				complex(float64((n+m-1)*(n-m-1)), 0)*dst[Idx(n-2, m)]) * invR2
		}
	}
	return dst
}

func finite(c complex128) bool {
	return !math.IsNaN(real(c)) && !math.IsInf(real(c), 0) &&
		!math.IsNaN(imag(c)) && !math.IsInf(imag(c), 0)
}

// tableMismatch returns the index of the first entry where got differs from
// the finite entries of want, or -1. On amd64, where Go never fuses a
// multiply and an add, they must be equal as float64 values (==, so a
// zero's sign may differ). Elsewhere the compiler may fuse them in
// different places in the two forms, so each entry must agree to 1e-14 of
// want's largest finite entry, as the translation kernels' oracle test
// allows.
func tableMismatch(got, want []complex128) int {
	var scale float64
	for _, w := range want {
		if finite(w) {
			scale = math.Max(scale, cmplx.Abs(w))
		}
	}
	for i, w := range want {
		if !finite(w) {
			continue
		}
		g := got[i]
		if runtime.GOARCH == "amd64" {
			if real(g) != real(w) || imag(g) != imag(w) {
				return i
			}
		} else if !(cmplx.Abs(g-w) <= 1e-14*scale) {
			return i
		}
	}
	return -1
}

// checkTables compares Regular and Irregular at v, to every degree up to
// p, against the complex-arithmetic reference.
func checkTables(t *testing.T, v vec.V3, p int) {
	t.Helper()
	buf := make([]complex128, Len(p))
	if i := tableMismatch(Regular(buf, v, p), regularComplex(v, p)); i >= 0 {
		t.Fatalf("Regular(%v, %d)[%d] = %v, complex reference %v", v, p, i, buf[i], regularComplex(v, p)[i])
	}
	if i := tableMismatch(Irregular(buf, v, p), irregularComplex(v, p)); i >= 0 {
		t.Fatalf("Irregular(%v, %d)[%d] = %v, complex reference %v", v, p, i, buf[i], irregularComplex(v, p)[i])
	}
}

// TestTablesMatchComplexReference pins the real-arithmetic recurrences to
// the complex ones entry for entry: degrees 0-30 on random vectors, on the
// z axis (x = y = 0, where every m > 0 entry is an exact zero), in the
// z = 0 plane (every odd n-m entry zero), and at lengths from 1e-300,
// where high degrees underflow, to 1e300, where they overflow.
func TestTablesMatchComplexReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for p := 0; p <= 30; p++ {
		for _, scale := range []float64{1e-300, 1e-8, 1e-3, 0.5, 1, 2, 1e3, 1e8, 1e150, 1e300} {
			v := randVec(rng, scale)
			for _, w := range []vec.V3{
				v,
				{Z: v.Z},
				{Z: -scale},
				{X: v.X, Y: v.Y},
				{X: scale},
				{Y: -scale},
			} {
				checkTables(t, w, p)
			}
		}
	}
}

// FuzzSolidHarmonics: on an arbitrary vector and a degree in 0-30, Regular
// and Irregular must not panic and must match the complex reference
// wherever it is finite.
func FuzzSolidHarmonics(f *testing.F) {
	f.Add(0.3, -0.2, 0.7, 8)
	f.Add(0.0, 0.0, 1.0, 13)
	f.Add(1.0, -2.0, 0.0, 30)
	f.Add(1e-300, 0.0, -1e-300, 30)
	f.Add(1e300, 1e300, 1e300, 5)
	f.Add(0.0, 0.0, 0.0, 3)
	f.Fuzz(func(t *testing.T, x, y, z float64, k int) {
		p := k % 31
		if p < 0 {
			p = -p
		}
		checkTables(t, vec.V3{X: x, Y: y, Z: z}, p)
	})
}
