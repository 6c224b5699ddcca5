package multipole

import (
	"math"

	"treecode/internal/vec"
)

// evaluateFieldFusedRef is the EvaluateFieldFused that carried the complex
// S_N^K through every column's recurrence, kept verbatim as the reference
// of the phase-factored production kernel, which runs the column's real
// factor t_N and multiplies by S_K^K once per column. The two agree to
// roundoff on the Theorem 1 scale (TestFusedMatchesReferences).
func evaluateFieldFusedRef(e *Expansion, x vec.V3, p int) (phi float64, grad vec.V3) {
	if p > e.Degree {
		p = e.Degree
	}
	c := e.Coeff
	d := x.Sub(e.Center)
	invR2 := 1 / d.Norm2()
	zr := d.Z * invR2
	var gx, gy, gz float64

	// Column 0: S_N^0 is real, S_0^0 = 1/rho and S_1^0 = z S_0^0 / rho^2.
	s0 := math.Sqrt(invR2)
	qs, ps := s0, zr*s0
	cphi, cgz := real(c[0])*qs, real(c[0])*ps
	i := 0 // Idx(N-1, K)
	for n := 2; n <= p+1; n++ {
		// S_n^0 = ((2n-1) z S_{n-1}^0 - (n-1)^2 S_{n-2}^0) / rho^2
		s := float64(2*n-1)*zr*ps - float64((n-1)*(n-1))*invR2*qs
		i += n - 1
		mid, right := c[i], c[i+1]
		cphi += real(mid) * ps
		cgz += real(mid) * s
		gx -= real(right) * s
		gy += imag(right) * s
		qs, ps = ps, s
	}
	phi, gz = cphi, -cgz

	smr, smi := s0, 0.0 // S_K^K
	im := 0             // Idx(K, K)
	for k := 1; ; k++ {
		// Row k: S_k^k = -(2k-1) (x+iy) S_{k-1}^{k-1} / rho^2, paired
		// with M_{k-1}^{k-1}.
		f := float64(2*k-1) * invR2
		ar, ai := -f*d.X, -f*d.Y
		smr, smi = ar*smr-ai*smi, ar*smi+ai*smr
		left := c[im]
		gx += real(left)*smr - imag(left)*smi
		gy += real(left)*smi + imag(left)*smr
		if k > p {
			return phi, vec.V3{X: gx, Y: gy, Z: gz}
		}
		im += k + 1
		// Row k+1: S_{k+1}^k = (2k+1) z S_k^k / rho^2, paired with M_k^k
		// and M_k^{k-1}.
		f = float64(2*k+1) * zr
		pr, pi := f*smr, f*smi
		mid, left := c[im], c[im-1]
		cphi = real(mid)*smr - imag(mid)*smi
		cgz = real(mid)*pr - imag(mid)*pi
		gx += real(left)*pr - imag(left)*pi
		gy += real(left)*pi + imag(left)*pr
		qr, qi := smr, smi
		i = im
		for n := k + 2; n <= p+1; n++ {
			// S_n^k = ((2n-1) z S_{n-1}^k - (n+k-1)(n-k-1) S_{n-2}^k) / rho^2
			c1 := float64(2*n-1) * zr
			c2 := float64((n+k-1)*(n-k-1)) * invR2
			nr, ni := c1*pr-c2*qr, c1*pi-c2*qi
			i += n - 1
			left, mid = c[i-1], c[i]
			right := c[i+1]
			cphi += real(mid)*pr - imag(mid)*pi
			cgz += real(mid)*nr - imag(mid)*ni
			gx += (real(left)-real(right))*nr - (imag(left)-imag(right))*ni
			gy += (real(left)+real(right))*ni + (imag(left)+imag(right))*nr
			qr, qi = pr, pi
			pr, pi = nr, ni
		}
		phi += 2 * cphi
		gz -= 2 * cgz
	}
}

// evaluateFusedRef is the EvaluateFused that carried the complex S_n^m
// through every column's recurrence, kept verbatim as the reference of the
// phase-factored production kernel.
func evaluateFusedRef(e *Expansion, x vec.V3, p int) float64 {
	if p > e.Degree {
		p = e.Degree
	}
	d := x.Sub(e.Center)
	ux, uy, z := d.X, d.Y, d.Z
	invR2 := 1 / d.Norm2()

	smr, smi := math.Sqrt(invR2), 0.0 // S_m^m, seeded with S_0^0 = 1/rho
	var phi float64
	w := 1.0 // column weight: 1 for m = 0, 2 for m >= 1 (conjugate symmetry)
	im := 0  // Idx(m, m)
	for m := 0; ; m++ {
		c := e.Coeff[im]
		cs := real(c)*smr - imag(c)*smi // column dot product, Re(C * S)
		if m < p {
			// S_{m+1}^m = (2m+1) z S_m^m / rho^2
			f := float64(2*m+1) * z * invR2
			pr, pi := f*smr, f*smi
			i := im + m + 1 // Idx(m+1, m)
			c = e.Coeff[i]
			cs += real(c)*pr - imag(c)*pi
			qr, qi := smr, smi // S_{n-2}^m trails the recurrence
			for n := m + 2; n <= p; n++ {
				// S_n^m = ((2n-1) z S_{n-1}^m - (n+m-1)(n-m-1) S_{n-2}^m) / rho^2
				c1 := float64(2*n-1) * z * invR2
				c2 := float64((n+m-1)*(n-m-1)) * invR2
				nr := c1*pr - c2*qr
				ni := c1*pi - c2*qi
				i += n // Idx(n, m)
				c = e.Coeff[i]
				cs += real(c)*nr - imag(c)*ni
				qr, qi = pr, pi
				pr, pi = nr, ni
			}
		}
		phi += w * cs
		if m == p {
			return phi
		}
		// S_{m+1}^{m+1} = -(2m+1) (x+iy) S_m^m / rho^2
		f := float64(2*m+1) * invR2
		ar, ai := -f*ux, -f*uy
		smr, smi = ar*smr-ai*smi, ar*smi+ai*smr
		im += m + 2 // Idx(m+1, m+1)
		w = 2
	}
}
