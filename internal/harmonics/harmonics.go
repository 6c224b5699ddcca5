// Package harmonics computes complex solid spherical harmonics, the basis
// functions of multipole and local expansions for the 3-D Laplace kernel.
//
// # Conventions
//
// With spherical coordinates (rho, theta, phi) and associated Legendre
// functions P_n^m carrying the Condon-Shortley phase, we use the Hobson
// normalization:
//
//	regular:   R_n^m = rho^n   P_n^|m|(cos theta) e^{im phi} / (n+|m|)!
//	irregular: S_n^m = (n-|m|)! P_n^|m|(cos theta) e^{im phi} / rho^{n+1}
//
// for -n <= m <= n, with the symmetries
//
//	R_n^{-m} = (-1)^m conj(R_n^m),   S_n^{-m} = (-1)^m conj(S_n^m),
//
// so only m >= 0 is stored (triangular layout, index Idx(n,m)).
//
// This normalization makes the expansion and translation theorems free of
// coefficient factors:
//
//	1/|x-y| = sum_{n,m} conj(R_n^m(y)) S_n^m(x)              (|y| < |x|)
//	R_n^m(a+b) = sum_{j<=n,k} R_j^k(a) R_{n-j}^{m-k}(b)       (exact)
//	S_n^m(a+b) = sum_{j,k} (-1)^j conj(R_j^k(b)) S_{n+j}^{m+k}(a)   (|b| < |a|)
//
// which internal/multipole turns directly into the P2M/M2M/M2P/M2L/L2L/L2P
// operators. Derivatives obey the ladder identities
//
//	dS/dz = -S_{n+1}^m, (dx+i dy)S = S_{n+1}^{m+1}, (dx-i dy)S = -S_{n+1}^{m-1}
//	dR/dz =  R_{n-1}^m, (dx+i dy)R = R_{n-1}^{m+1}, (dx-i dy)R = -R_{n-1}^{m-1}
//
// (verified against finite differences in the tests), which give analytic
// force evaluation.
//
// Both R and S are computed with factorial-free recurrences so that high
// degrees (p ~ 30+) remain accurate:
//
//	R_m^m   = R_{m-1}^{m-1} * (-(x+iy)) / (2m)
//	R_{m+1}^m = z * R_m^m
//	R_n^m   = ((2n-1) z R_{n-1}^m - rho^2 R_{n-2}^m) / ((n-m)(n+m))
//
//	S_0^0   = 1/rho
//	S_m^m   = S_{m-1}^{m-1} * (-(2m-1)(x+iy)) / rho^2
//	S_{m+1}^m = (2m+1) z S_m^m / rho^2
//	S_n^m   = ((2n-1) z S_{n-1}^m - (n+m-1)(n-m-1) S_{n-2}^m) / rho^2
//
// # Real arithmetic
//
// Only the diagonal step multiplies two complex numbers; every other factor
// (z, rho^2, the integer coefficients) is real. Regular and Irregular run
// the recurrences column by column (fixed m, increasing n) on the real and
// imaginary parts as float64 scalars, in the association order of the
// complex formulas above: (2n-1)*z*R multiplies left to right, and R's
// divisions by 2m and (n-m)(n+m) stay real divisions, because x/D and
// x*(1/D) can differ in the last bit. Complex multiplication by
// complex(a, 0) would add products 0*y that only change the sign of an
// exact zero, so every table entry equals, as a float64 value, what the
// complex formulas give wherever those are finite (reference_test.go keeps
// them as the reference). Where an entry overflows, the complex form's
// 0*Inf turns it into NaN and the real form keeps the infinity. Every
// consumer (P2M, M2M, M2L, L2L, L2P, M2P) accumulates from +0, which
// absorbs a zero's sign, so their results are bitwise the same either way.
package harmonics

import (
	"math/cmplx"

	"treecode/internal/vec"
)

// Idx maps (n, m) with 0 <= m <= n to the triangular storage index.
func Idx(n, m int) int { return n*(n+1)/2 + m }

// Len returns the number of stored coefficients for degree p.
func Len(p int) int { return (p + 1) * (p + 2) / 2 }

// Regular fills dst (length >= Len(p)) with R_n^m(v) for 0 <= m <= n <= p
// and returns it. A nil dst allocates. The origin is fine: R_0^0 = 1 and all
// higher terms vanish.
//
//treecode:hot
func Regular(dst []complex128, v vec.V3, p int) []complex128 {
	if dst == nil {
		dst = make([]complex128, Len(p))
	}
	dst = dst[:Len(p)]
	ur, ui := -v.X, -v.Y // -(x+iy)
	z := v.Z
	rho2 := v.Norm2()

	mr, mi := 1.0, 0.0 // R_m^m, seeded with R_0^0 = 1
	im := 0            // Idx(m, m)
	for m := 0; m <= p; m++ {
		if m > 0 {
			d := float64(2 * m)
			mr, mi = (mr*ur-mi*ui)/d, (mr*ui+mi*ur)/d
		}
		dst[im] = complex(mr, mi)
		if m < p {
			pr, pi := z*mr, z*mi // R_{m+1}^m
			i := im + m + 1      // Idx(m+1, m)
			dst[i] = complex(pr, pi)
			qr, qi := mr, mi // R_{n-2}^m trails the recurrence
			for n := m + 2; n <= p; n++ {
				c := float64(2*n-1) * z
				d := float64((n - m) * (n + m))
				nr, ni := (c*pr-rho2*qr)/d, (c*pi-rho2*qi)/d
				i += n // Idx(n, m)
				dst[i] = complex(nr, ni)
				qr, qi, pr, pi = pr, pi, nr, ni
			}
		}
		im += m + 2
	}
	return dst
}

// Irregular fills dst (length >= Len(p)) with S_n^m(v) for 0 <= m <= n <= p
// and returns it. v must be nonzero; S is singular at the origin.
//
//treecode:hot
func Irregular(dst []complex128, v vec.V3, p int) []complex128 {
	if dst == nil {
		dst = make([]complex128, Len(p))
	}
	dst = dst[:Len(p)]
	x, y, z := v.X, v.Y, v.Z
	invR2 := 1 / v.Norm2()

	mr, mi := 1/v.Norm(), 0.0 // S_m^m, seeded with S_0^0 = 1/rho
	im := 0                   // Idx(m, m)
	for m := 0; m <= p; m++ {
		if m > 0 {
			f := -float64(2*m - 1)
			ar, ai := mr*f, mi*f
			mr, mi = (ar*x-ai*y)*invR2, (ar*y+ai*x)*invR2
		}
		dst[im] = complex(mr, mi)
		if m < p {
			g := float64(2*m+1) * z
			pr, pi := g*mr*invR2, g*mi*invR2 // S_{m+1}^m
			i := im + m + 1                  // Idx(m+1, m)
			dst[i] = complex(pr, pi)
			qr, qi := mr, mi // S_{n-2}^m trails the recurrence
			for n := m + 2; n <= p; n++ {
				c1 := float64(2*n-1) * z
				c2 := float64((n + m - 1) * (n - m - 1))
				nr, ni := (c1*pr-c2*qr)*invR2, (c1*pi-c2*qi)*invR2
				i += n // Idx(n, m)
				dst[i] = complex(nr, ni)
				qr, qi, pr, pi = pr, pi, nr, ni
			}
		}
		im += m + 2
	}
	return dst
}

// Get returns the coefficient for any -n <= m <= n from a triangular table,
// applying the symmetry T_n^{-m} = (-1)^m conj(T_n^m). Out-of-range (n, m)
// returns 0, which lets translation loops run over full index ranges.
func Get(t []complex128, p, n, m int) complex128 {
	if n < 0 || n > p {
		return 0
	}
	if m > n || -m > n {
		return 0
	}
	if m >= 0 {
		return t[Idx(n, m)]
	}
	c := cmplx.Conj(t[Idx(n, -m)])
	if (-m)%2 == 1 {
		return -c
	}
	return c
}
