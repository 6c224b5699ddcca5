// Package multipole implements truncated multipole and local expansions of
// the 3-D Laplace kernel Phi(x) = sum_i q_i/|x - x_i|, together with the six
// classical operators:
//
//	P2M  particles            -> multipole expansion
//	M2M  multipole            -> multipole about a new center (exact)
//	M2P  multipole            -> potential/field at a point
//	M2L  multipole            -> local expansion about a distant center
//	L2L  local                -> local about a new center (exact)
//	L2P  local                -> potential/field at a point
//
// Coefficient conventions follow internal/harmonics: with the Hobson
// normalization the operators are plain convolutions of coefficient arrays
// with regular/irregular harmonics of the shift vector:
//
//	M_n^m   = sum_i q_i conj(R_n^m(x_i - c))
//	Phi(x)  = Re sum_{n,m} M_n^m S_n^m(x - c)                       (M2P)
//	M'_n^m  = sum_{j,k} conj(R_j^k(c_old - c_new)) M_{n-j}^{m-k}     (M2M)
//	L_j^k   = (-1)^j sum_{n,m} M_n^m S_{j+n}^{k+m}(z - c)            (M2L)
//	L'_n^m  = sum_{j>=n,k} L_j^k conj(R_{j-n}^{k-m}(z_new - z_old))  (L2L)
//	Phi(x)  = Re sum_{n,m} L_n^m conj(R_n^m(x - z))                  (L2P)
//
// The truncation error of a degree-p multipole interaction obeys Greengard &
// Rokhlin's bound (Theorem 1 of the paper):
//
//	|Phi - Phi_p| <= A/(r-a) * (a/r)^{p+1},   A = sum_i |q_i|,
//
// exposed here as TruncationBound. Expansions additionally track A and the
// cluster radius a so the treecode can apply the bound per interaction.
package multipole

import (
	"math"
	"math/cmplx"

	"treecode/internal/harmonics"
	"treecode/internal/rotation"
	"treecode/internal/vec"
)

// Expansion is a truncated multipole expansion about Center: the far-field
// signature of a particle cluster.
type Expansion struct {
	Center vec.V3
	Degree int          // truncation degree p
	Coeff  []complex128 // triangular m>=0 storage, len harmonics.Len(Degree)

	AbsCharge float64 // A = sum |q_i|, drives the error bound
	Radius    float64 // radius a of the cluster about Center
}

// NewExpansion returns an empty degree-p expansion about center.
func NewExpansion(center vec.V3, p int) *Expansion {
	return &Expansion{Center: center, Degree: p, Coeff: make([]complex128, harmonics.Len(p))}
}

// Clear zeroes the coefficients and cluster statistics.
func (e *Expansion) Clear() {
	for i := range e.Coeff {
		e.Coeff[i] = 0
	}
	e.AbsCharge = 0
	e.Radius = 0
}

// AddParticle accumulates one charge into the expansion (P2M) and updates
// the cluster statistics.
func (e *Expansion) AddParticle(pos vec.V3, q float64) {
	e.AddParticleAt(pos, q, nil)
}

// AddParticleAt is AddParticle, the P2M of every upward pass. It does not
// read buf: P2M needs no harmonics table, and the parameter stays only
// until the benchmark's kernel probe, which passes one, changes. Pass nil.
//
// The regular harmonics R_n^m of pos - Center come column by column (fixed
// m, increasing n) from harmonics.Regular's real-arithmetic recurrences,
// carried in scalar registers, and each is added as q*conj(R_n^m) straight
// into Coeff: one pass, no table, no allocation. The recurrence's divisions
// and its association order are Regular's, so every coefficient is bitwise
// what Regular followed by Coeff[i] += q*conj(R[i]) gives wherever that is
// finite (p2m_test.go).
//
//treecode:hot
func (e *Expansion) AddParticleAt(pos vec.V3, q float64, buf []complex128) {
	d := pos.Sub(e.Center)
	c := e.Coeff
	p := e.Degree
	ur, ui := -d.X, -d.Y // -(x+iy)
	z := d.Z
	rho2 := d.Norm2()

	mr, mi := 1.0, 0.0 // R_m^m, seeded with R_0^0 = 1
	im := 0            // Idx(m, m)
	for m := 0; m <= p; m++ {
		if m > 0 {
			dm := float64(2 * m)
			mr, mi = (mr*ur-mi*ui)/dm, (mr*ui+mi*ur)/dm
		}
		c[im] = complex(real(c[im])+q*mr, imag(c[im])-q*mi)
		if m < p {
			pr, pi := z*mr, z*mi // R_{m+1}^m
			i := im + m + 1      // Idx(m+1, m)
			c[i] = complex(real(c[i])+q*pr, imag(c[i])-q*pi)
			tr, ti := mr, mi // R_{n-2}^m trails the recurrence
			for n := m + 2; n <= p; n++ {
				cn := float64(2*n-1) * z
				dn := float64((n - m) * (n + m))
				nr, ni := (cn*pr-rho2*tr)/dn, (cn*pi-rho2*ti)/dn
				i += n // Idx(n, m)
				c[i] = complex(real(c[i])+q*nr, imag(c[i])-q*ni)
				tr, ti, pr, pi = pr, pi, nr, ni
			}
		}
		im += m + 2
	}
	e.AbsCharge += math.Abs(q)
	if rad := d.Norm(); rad > e.Radius {
		e.Radius = rad
	}
}

// P2M builds a degree-p expansion about center from positions and charges.
// It allocates the expansion and nothing else.
func P2M(pos []vec.V3, q []float64, center vec.V3, p int) *Expansion {
	e := NewExpansion(center, p)
	for i, x := range pos {
		e.AddParticle(x, q[i])
	}
	return e
}

// Translate shifts the expansion to a new center (M2M), producing a degree
// pOut expansion. M2M is exact when pOut <= e.Degree: the translated
// coefficients equal those of a direct P2M about the new center.
func (e *Expansion) Translate(newCenter vec.V3, pOut int) *Expansion {
	out := NewExpansion(newCenter, pOut)
	out.AccumulateTranslated(e)
	return out
}

// AccumulateTranslated adds src, re-centered onto e.Center, into e (the
// M2M accumulation of the upward pass). The result is exact for the degrees
// e keeps as long as src.Degree >= e.Degree. Cluster statistics are merged:
// charges add, and the radius becomes an upper bound covering both clusters.
func (e *Expansion) AccumulateTranslated(src *Expansion) {
	e.AccumulateTranslatedBuf(src, nil)
}

// AccumulateTranslatedBuf is AccumulateTranslated with a caller-provided
// scratch buffer of length >= harmonics.Len(e.Degree) (nil allocates).
// Useful in upward passes that translate many children per scratch.
//
// The convolution M'_n^m += sum_{j,k} conj(R_j^k) M_{n-j}^{m-k} reads both
// tables in their triangular m >= 0 storage. For each (n, m, j) the range
// of k splits where an order changes sign:
//
//	k < 0:        conj(R_j^k) = (-1)^k R_j^{-k}
//	0 <= k <= m:  both orders stored
//	k > m:        M_{n-j}^{m-k} = (-1)^{k-m} conj(M_{n-j}^{k-m})
//
// so each segment is a multiply-accumulate with no branch in its loop, and
// conjugation and the (-1)^k factors are exact sign flips. The terms are
// summed in the (n, m, j, k) order of the symmetric formula, so every
// coefficient is bitwise the Get-indexed convolution's (oracle_test.go).
// Source rows above src.Degree are zero and skipped.
//
//treecode:hot
func (e *Expansion) AccumulateTranslatedBuf(src *Expansion, buf []complex128) {
	t := src.Center.Sub(e.Center)
	rt := harmonics.Regular(buf, t, e.Degree)
	mc := src.Coeff
	in := 0 // harmonics.Idx(n, 0)
	for n := 0; n <= e.Degree; n++ {
		for m := 0; m <= n; m++ {
			var sr, si float64
			for j := max(0, n-src.Degree); j <= n; j++ {
				q := n - j
				ij, iq := j*(j+1)/2, q*(q+1)/2 // rows R_j and M_q
				lo, hi := max(-j, m-q), min(j, m+q)
				s := 1 - 2*float64(lo&1) // (-1)^k
				for k := lo; k < 0; k++ {
					r, a := rt[ij-k], mc[iq+m-k]
					sr += s * (real(r)*real(a) - imag(r)*imag(a))
					si += s * (real(r)*imag(a) + imag(r)*real(a))
					s = -s
				}
				for k := max(lo, 0); k <= min(hi, m); k++ {
					r, a := rt[ij+k], mc[iq+m-k]
					sr += real(r)*real(a) + imag(r)*imag(a)
					si += real(r)*imag(a) - imag(r)*real(a)
				}
				s = -1 // (-1)^(k-m)
				for k := m + 1; k <= hi; k++ {
					r, a := rt[ij+k], mc[iq+k-m]
					sr += s * (real(r)*real(a) - imag(r)*imag(a))
					si -= s * (real(r)*imag(a) + imag(r)*real(a))
					s = -s
				}
			}
			e.Coeff[in+m] += complex(sr, si)
		}
		in += n + 1
	}
	e.AccumulateStats(src)
}

// AccumulateStats merges src's cluster statistics into e exactly as
// AccumulateTranslated does, without translating its coefficients: charges
// add, and the radius grows to cover src about e.Center. An upward pass
// that builds a node's coefficients by P2M over its particles calls it per
// child, so the node's AbsCharge and Radius, and with them every acceptance
// decision and Theorem 1 bound, are the M2M values bit for bit.
func (e *Expansion) AccumulateStats(src *Expansion) {
	e.AbsCharge += src.AbsCharge
	if r := src.Radius + src.Center.Sub(e.Center).Norm(); r > e.Radius {
		e.Radius = r
	}
}

// TranslateOps returns the multiply-adds AccumulateTranslatedBuf performs
// to build a degree-p expansion from a source of degree p or more: the
// lengths of the k loops' sign segments, summed over (n, m, j). It is the
// upward pass's cost of one M2M child, against harmonics.Len(p) per
// particle for P2M.
func TranslateOps(p int) int64 {
	var ops int64
	for n := 0; n <= p; n++ {
		for m := 0; m <= n; m++ {
			for j := 0; j <= n; j++ {
				q := n - j
				ops += int64(min(j, m+q) - max(-j, m-q) + 1)
			}
		}
	}
	return ops
}

// EvaluatePrefix is Evaluate with a caller-provided scratch buffer of
// length >= harmonics.Len(p) (nil allocates). Useful in hot loops.
//
//treecode:hot
func (e *Expansion) EvaluatePrefix(x vec.V3, p int, buf []complex128) float64 {
	return e.evaluateBuf(x, p, buf)
}

// BoundAt returns the Theorem 1 truncation bound for evaluating this
// expansion at point x with degree p.
func (e *Expansion) BoundAt(x vec.V3, p int) float64 {
	return TruncationBound(e.AbsCharge, e.Radius, x.Dist(e.Center), p)
}

// AddScaled accumulates s * src into e. Both expansions must share the same
// center; degrees may differ (missing higher-degree terms are treated as 0).
func (e *Expansion) AddScaled(src *Expansion, s float64) {
	sc := complex(s, 0)
	n := len(src.Coeff)
	if len(e.Coeff) < n {
		n = len(e.Coeff)
	}
	for i := 0; i < n; i++ {
		e.Coeff[i] += sc * src.Coeff[i]
	}
	e.AbsCharge += math.Abs(s) * src.AbsCharge
	if src.Radius > e.Radius {
		e.Radius = src.Radius
	}
}

// Evaluate computes the potential at x from the expansion (M2P), using terms
// up to degree p (p > e.Degree is clamped). x must be outside the cluster
// radius for the result to be meaningful.
func (e *Expansion) Evaluate(x vec.V3, p int) float64 {
	return e.evaluateBuf(x, p, nil)
}

// evaluateBuf is the shared M2P core of Evaluate and EvaluatePrefix. The
// triangular row offset advances incrementally (base of row n+1 = base of
// row n + n + 1), so the inner loop touches coefficients and harmonics as
// two linear scans with no index arithmetic beyond an add.
//
//treecode:hot
func (e *Expansion) evaluateBuf(x vec.V3, p int, buf []complex128) float64 {
	if p > e.Degree {
		p = e.Degree
	}
	s := harmonics.Irregular(buf, x.Sub(e.Center), p)
	var phi float64
	base := 0 // harmonics.Idx(n, 0)
	for n := 0; n <= p; n++ {
		phi += real(e.Coeff[base] * s[base])
		for m := 1; m <= n; m++ {
			phi += 2 * real(e.Coeff[base+m]*s[base+m])
		}
		base += n + 1
	}
	return phi
}

// EvaluateField computes the potential and its gradient at x (M2P with
// forces), using terms up to degree p. The gradient uses the exact ladder
// identities, so it is the true gradient of the truncated series.
func (e *Expansion) EvaluateField(x vec.V3, p int) (phi float64, grad vec.V3) {
	return e.EvaluateFieldBuf(x, p, nil)
}

// EvaluateFieldBuf is EvaluateField with a caller-provided scratch buffer of
// length >= harmonics.Len(p+1) (nil allocates).
//
// The ladder identities
//
//	dS/dx = (S_{n+1}^{m+1} - S_{n+1}^{m-1})/2
//	dS/dy = (S_{n+1}^{m+1} + S_{n+1}^{m-1})/(2i)
//	dS/dz = -S_{n+1}^m
//
// are summed over -n <= m <= n, but the negative-m terms are the complex
// conjugates of the positive-m terms (T_n^{-m} = (-1)^m conj(T_n^m) for
// both the coefficients and the harmonics), so each gradient component
// reduces to m = 0 plus twice the real part of the m >= 1 terms. That lets
// the loop read the triangular m >= 0 storage directly — no symmetry-
// resolving table lookups in the inner loop — and accumulate the three
// components as scalars.
//
//treecode:hot
func (e *Expansion) EvaluateFieldBuf(x vec.V3, p int, buf []complex128) (phi float64, grad vec.V3) {
	if p > e.Degree {
		p = e.Degree
	}
	// Need S up to degree p+1 for the derivatives.
	s := harmonics.Irregular(buf, x.Sub(e.Center), p+1)
	var gx, gy, gz float64
	base := 0 // harmonics.Idx(n, 0); row n+1 starts at base + n + 1
	for n := 0; n <= p; n++ {
		b1 := base + n + 1
		// m = 0: S_{n+1}^{-1} = -conj(S_{n+1}^{1}) collapses the x/y
		// ladder to the real and imaginary parts of S_{n+1}^{1}.
		c := e.Coeff[base]
		cr, ci := real(c), imag(c)
		sv := s[base]
		phi += cr*real(sv) - ci*imag(sv)
		sp := s[b1+1]
		gx += cr * real(sp)
		gy += cr * imag(sp)
		sm := s[b1]
		gz -= cr*real(sm) - ci*imag(sm)
		for m := 1; m <= n; m++ {
			c := e.Coeff[base+m]
			cr, ci := real(c), imag(c)
			sv := s[base+m]
			phi += 2 * (cr*real(sv) - ci*imag(sv))
			spp := s[b1+m+1]
			spm := s[b1+m-1]
			// m and -m together: 2 Re of each ladder term.
			gx += cr*(real(spp)-real(spm)) - ci*(imag(spp)-imag(spm))
			gy += cr*(imag(spp)+imag(spm)) + ci*(real(spp)+real(spm))
			smid := s[b1+m]
			gz -= 2 * (cr*real(smid) - ci*imag(smid))
		}
		base = b1
	}
	return phi, vec.V3{X: gx, Y: gy, Z: gz}
}

// EvaluateFieldFused computes the M2P potential and its gradient at x using
// terms up to degree p (clamped to e.Degree): EvaluateFieldBuf's result in
// one pass over the irregular harmonics, with no scratch table and no
// allocation. Harmonics S_N^K, 0 <= K <= N <= p+1, come column by column
// (fixed K, increasing N) from the same recurrences as EvaluateFused, and
// each is consumed once, as it is produced, by the coefficients of row N-1
// that the ladder identities pair it with:
//
//	phi      += w_K Re(M_{N-1}^K S_{N-1}^K)     (one row behind)
//	dphi/dz  -= w_K Re(M_{N-1}^K S_N^K)
//	gx + i gy += M_{N-1}^{K-1} S_N^K - conj(M_{N-1}^{K+1} S_N^K)
//
// with w_0 = 1 and w_K = 2 (the conjugate -K terms). The potential runs one
// row behind and reuses the coefficient the z-derivative has just loaded,
// so the degree p+1 row, which has no potential coefficient, needs no
// special case. Each column peels its first two rows (N = K has only the
// ladder term of M_{K-1}^{K-1}, and N = K+1 has no M_K^{K+1}), so the
// steady rows K+2 <= N <= p+1 are one branch-free multiply-accumulate.
// Column 0 is real, and the ladder reaches it only through M_{N-1}^1.
// Column 1 multiplies the full complex M_{N-1}^0, where EvaluateFieldBuf
// takes its real part; the imaginary part is zero up to the upward pass's
// roundoff. Results agree with EvaluateFieldBuf to roundoff on the
// Theorem 1 scale, A/(r-a) for the potential and A/(r-a)^2 for the
// gradient (fused_test.go).
//
//treecode:hot
func (e *Expansion) EvaluateFieldFused(x vec.V3, p int) (phi float64, grad vec.V3) {
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

// EvaluateFused computes the M2P potential at x using terms up to degree p
// (clamped to e.Degree), fusing the irregular-harmonic recurrence with the
// coefficient dot product. Harmonics are consumed column-by-column (fixed
// order m, increasing n) as the recurrence produces them, carried in three
// scalar register pairs, so no scratch table is written or read and the
// call performs no allocation. The real-valued recurrence scalars multiply
// real/imaginary parts directly instead of going through complex
// arithmetic, and the triangular coefficient index advances incrementally
// (Idx(n+1,m) = Idx(n,m) + n + 1), so the inner loop is six multiplies and
// a fused accumulate per term.
//
// The recurrences and term pairing are exactly EvaluatePrefix's; only the
// floating-point association order differs, so results agree to roundoff.
// It is the one potential M2P kernel in production: the treecode's walk,
// its batched shared M2P lists and its refinement band all evaluate
// through it. The two-pass EvaluatePrefix stays as the readable reference
// for tests and the error-budget analysis.
//
//treecode:hot
func (e *Expansion) EvaluateFused(x vec.V3, p int) float64 {
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

// TruncationBound returns the Greengard-Rokhlin bound on the absolute error
// of evaluating a degree-p expansion of a cluster with absolute charge a
// total A and radius a, at distance r > a from the center (Theorem 1).
func TruncationBound(A, a, r float64, p int) float64 {
	if r <= a {
		return math.Inf(1)
	}
	return A / (r - a) * math.Pow(a/r, float64(p+1))
}

// TruncationBoundFast is TruncationBound with the integer power computed by
// exponentiation-by-squaring instead of math.Pow — several times cheaper on
// the per-interaction hot path, identical to machine precision (the paper's
// formula is unchanged; only the power evaluation differs). Used by the
// treecode's per-accept bound accounting.
//
//treecode:hot
func TruncationBoundFast(A, a, r float64, p int) float64 {
	if r <= a {
		return math.Inf(1)
	}
	return A / (r - a) * powInt(a/r, p+1)
}

// powInt returns x^n for n >= 0 by binary exponentiation.
func powInt(x float64, n int) float64 {
	y := 1.0
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			y *= x
		}
		x *= x
	}
	return y
}

// BoundAtFast is BoundAt using TruncationBoundFast.
func (e *Expansion) BoundAtFast(x vec.V3, p int) float64 {
	return TruncationBoundFast(e.AbsCharge, e.Radius, x.Dist(e.Center), p)
}

// Bound returns TruncationBound for this expansion at distance r.
func (e *Expansion) Bound(r float64) float64 {
	return TruncationBound(e.AbsCharge, e.Radius, r, e.Degree)
}

// Local is a truncated local (Taylor-like) expansion about Center: the
// near-field summary of distant sources, valid inside the cluster-free ball
// around Center.
type Local struct {
	Center vec.V3
	Degree int
	Coeff  []complex128 // triangular m>=0 storage
}

// NewLocal returns an empty degree-p local expansion about center.
func NewLocal(center vec.V3, p int) *Local {
	return &Local{Center: center, Degree: p, Coeff: make([]complex128, harmonics.Len(p))}
}

// Clear zeroes the coefficients.
func (l *Local) Clear() {
	for i := range l.Coeff {
		l.Coeff[i] = 0
	}
}

// M2L converts a multipole expansion into a degree-pOut local expansion
// about center. The two centers must be well separated: |center-e.Center|
// greater than the cluster radius plus the evaluation radius.
func (e *Expansion) M2L(center vec.V3, pOut int) *Local {
	l := NewLocal(center, pOut)
	// Accumulate onto -0, the additive identity of every float (+0 is not:
	// +0 + -0 = +0), so each coefficient is the converted value to the bit,
	// sign of zero included.
	negZero := complex(math.Copysign(0, -1), math.Copysign(0, -1))
	for i := range l.Coeff {
		l.Coeff[i] = negZero
	}
	l.AccumulateM2L(e, make([]complex128, M2LBufLen(e.Degree, pOut)))
	return l
}

// M2LBufLen returns the scratch length AccumulateM2L needs to convert a
// degree pSrc multipole into a degree pLocal local:
// harmonics.Len(pSrc) + harmonics.Len(pLocal) + pSrc + pLocal + 1, for the
// rotated source, the axial local, and the axial factors u!/r^{u+1},
// u <= pSrc+pLocal, whose slots the rotations also use. It grows with
// both degrees, and at equal degrees p it is at least harmonics.Len(p),
// the scratch of L2L and L2P.
func M2LBufLen(pSrc, pLocal int) int {
	return harmonics.Len(pSrc) + harmonics.Len(pLocal) + pSrc + pLocal + 1
}

// AccumulateM2L adds the local expansion of src about l.Center, truncated
// at l.Degree, into l: the M2L of one entry of an FMM target's interaction
// list. buf is scratch of length >= M2LBufLen(src.Degree, l.Degree).
//
// The conversion L_j^k = (-1)^j sum_{n,m} M_n^m S_{j+n}^{k+m}(t) runs in
// O(p^3) by rotation (DESIGN §16), with t = l.Center - src.Center at
// azimuth phi and polar angle theta:
//
//  1. rotate the source by Rz(-phi) and Ry(-theta), so t lies on +z:
//     M_n^m picks up e^{im phi}, then rotation.RotateY;
//  2. convert along the axis, where S_N^K(r zhat) = delta_{K0} N!/r^{N+1}:
//     L_j^k = (-1)^j sum_n M_n^{-k} (j+n)!/r^{j+n+1};
//  3. rotate the local back by Ry(theta) and Rz(phi), and add it into l.
//
// e^{i phi} = (t_x + i t_y)/rho_xy (1 on the z axis), cos(theta) = t_z/r
// and sin(theta) = rho_xy/r come from t's components, with no
// trigonometry. It is the same linear map as the convolution, so only
// roundoff differs: oracle_test.go compares it with the Get-indexed
// convolution per degree, on the scale of the Schmidt-normalized source.
//
//treecode:hot
func (l *Local) AccumulateM2L(src *Expansion, buf []complex128) {
	ps, pl := src.Degree, l.Degree
	a := buf[:harmonics.Len(ps)]
	b := buf[len(a):][:harmonics.Len(pl)]
	f := buf[len(a)+len(b):][:ps+pl+1]

	// The azimuth is taken from (t_x, t_y) scaled by its largest
	// component, so |e^{i phi}| = 1 to roundoff even where t_x^2 + t_y^2
	// would underflow.
	t := l.Center.Sub(src.Center)
	ur, ui := 1.0, 0.0 // e^{i phi}
	var rxy float64
	if s := max(math.Abs(t.X), math.Abs(t.Y)); s > 0 {
		x, y := t.X/s, t.Y/s
		h := math.Sqrt(x*x + y*y)
		ur, ui, rxy = x/h, y/h, s*h
	}
	r := math.Sqrt(rxy*rxy + t.Z*t.Z)
	cosb, sinb := t.Z/r, rxy/r

	// 1. A_n^m = M_n^m e^{im phi}, then Ry(-theta).
	mc := src.Coeff
	er, ei := 1.0, 0.0 // e^{im phi}
	for m := 0; m <= ps; m++ {
		i := m * (m + 3) / 2 // Idx(m, m)
		for n := m; n <= ps; n++ {
			c := mc[i]
			a[i] = complex(real(c)*er-imag(c)*ei, real(c)*ei+imag(c)*er)
			i += n + 1
		}
		er, ei = er*ur-ei*ui, er*ui+ei*ur
	}
	rotation.RotateY(a, ps, rotation.Multipole, cosb, -sinb, f)

	// 2. B_j^k = (-1)^j sum_n A_n^{-k} F_{j+n} with F_u = u!/r^{u+1} and
	// A_n^{-k} = (-1)^k conj(A_n^k).
	ir := 1 / r
	fu := ir
	for u := range f {
		f[u] = complex(fu, 0)
		fu *= float64(u+1) * ir
	}
	for k := 0; k <= pl; k++ {
		ik := k * (k + 3) / 2 // Idx(k, k)
		ij := ik              // Idx(j, k)
		for j := k; j <= pl; j++ {
			var sr, si float64
			i := ik // Idx(n, k)
			for n := k; n <= ps; n++ {
				fv := real(f[j+n])
				sr += real(a[i]) * fv
				si += imag(a[i]) * fv
				i += n + 1
			}
			if (j+k)&1 != 0 {
				sr = -sr
			} else {
				si = -si
			}
			b[ij] = complex(sr, si)
			ij += j + 1
		}
	}

	// 3. Ry(theta), then L_j^k += B_j^k e^{ik phi}.
	rotation.RotateY(b, pl, rotation.Local, cosb, sinb, f)
	lc := l.Coeff
	er, ei = 1, 0
	for k := 0; k <= pl; k++ {
		i := k * (k + 3) / 2 // Idx(k, k)
		for j := k; j <= pl; j++ {
			c := b[i]
			lc[i] += complex(real(c)*er-imag(c)*ei, real(c)*ei+imag(c)*er)
			i += j + 1
		}
		er, ei = er*ur-ei*ui, er*ui+ei*ur
	}
}

// AddP2L accumulates the local expansion of a single distant charge (P2L),
// used by adaptive FMM variants for small far clusters.
func (l *Local) AddP2L(pos vec.V3, q float64) {
	// Phi(x) = q/|x - pos| = q/|u - s| with u = pos - center, s = x - center,
	// |s| < |u|: = q sum conj(R(s)) S(u)  => L_j^k += q S_j^k(u).
	u := pos.Sub(l.Center)
	s := harmonics.Irregular(nil, u, l.Degree)
	qc := complex(q, 0)
	for i, c := range s {
		l.Coeff[i] += qc * c
	}
}

// Translate shifts the local expansion to a new center inside its domain of
// validity (L2L). Exact for pOut <= l.Degree in the sense that the result
// equals the truncation of the original series re-expanded.
func (l *Local) Translate(newCenter vec.V3, pOut int) *Local {
	out := NewLocal(newCenter, pOut)
	out.AccumulateL2L(l, nil)
	return out
}

// AccumulateL2L adds src, re-expanded about l.Center and truncated at
// l.Degree, into l: the L2L of an FMM downward pass. buf is scratch of
// length >= harmonics.Len(src.Degree) (nil allocates).
//
// The convolution L'_n^m += sum_{j>=n,k} L_j^k conj(R_{j-n}^{k-m}) reads
// both tables in their triangular storage. For each (n, m, j) the range of
// k splits where an order changes sign:
//
//	k < 0:       L_j^k conj(R_{j-n}^{k-m}) = (-1)^m conj(L_j^{-k}) R_{j-n}^{m-k}
//	0 <= k < m:  conj(R_{j-n}^{k-m}) = (-1)^{m-k} R_{j-n}^{m-k}
//	k >= m:      both orders stored
//
// so each segment is a multiply-accumulate with no branch in its loop, and
// the terms are summed in the (n, m, j, k) order of the symmetric formula:
// every coefficient is bitwise the Get-indexed convolution's
// (oracle_test.go).
//
//treecode:hot
func (l *Local) AccumulateL2L(src *Local, buf []complex128) {
	w := l.Center.Sub(src.Center)
	rw := harmonics.Regular(buf, w, src.Degree)
	lc := src.Coeff
	in := 0 // harmonics.Idx(n, 0)
	for n := 0; n <= l.Degree; n++ {
		for m := 0; m <= n; m++ {
			var sr, si float64
			sm := 1 - 2*float64(m&1) // (-1)^m
			for j := n; j <= src.Degree; j++ {
				q := j - n
				ij, iq := j*(j+1)/2, q*(q+1)/2 // rows L_j and R_q
				for k := m - q; k < 0; k++ {
					b, c := lc[ij-k], rw[iq+m-k]
					sr += sm * (real(b)*real(c) + imag(b)*imag(c))
					si += sm * (real(b)*imag(c) - imag(b)*real(c))
				}
				lo := max(0, m-q)
				s := 1 - 2*float64((m-lo)&1) // (-1)^(m-k)
				for k := lo; k < m; k++ {
					b, c := lc[ij+k], rw[iq+m-k]
					sr += s * (real(b)*real(c) - imag(b)*imag(c))
					si += s * (real(b)*imag(c) + imag(b)*real(c))
					s = -s
				}
				for k := m; k <= m+q; k++ {
					b, c := lc[ij+k], rw[iq+k-m]
					sr += real(b)*real(c) + imag(b)*imag(c)
					si += imag(b)*real(c) - real(b)*imag(c)
				}
			}
			l.Coeff[in+m] += complex(sr, si)
		}
		in += n + 1
	}
}

// Evaluate computes the potential at x from the local expansion (L2P).
func (l *Local) Evaluate(x vec.V3) float64 {
	return l.EvaluateBuf(x, nil)
}

// EvaluateBuf is Evaluate with a caller-provided scratch buffer of length
// >= harmonics.Len(l.Degree) (nil allocates).
//
// Each term Re(L_n^m conj(R_n^m)) is taken as Re(L)Re(R) + Im(L)Im(R)
// without forming the complex product; the product's real part is
// Re(L)Re(R) - Im(L)(-Im(R)), and x - (-y) is exactly x + y, so the sum is
// bitwise the complex form's.
//
//treecode:hot
func (l *Local) EvaluateBuf(x vec.V3, buf []complex128) float64 {
	r := harmonics.Regular(buf, x.Sub(l.Center), l.Degree)
	var phi float64
	base := 0 // harmonics.Idx(n, 0)
	for n := 0; n <= l.Degree; n++ {
		c, rr := l.Coeff[base], r[base]
		phi += real(c)*real(rr) + imag(c)*imag(rr)
		for m := 1; m <= n; m++ {
			c, rr := l.Coeff[base+m], r[base+m]
			phi += 2 * (real(c)*real(rr) + imag(c)*imag(rr))
		}
		base += n + 1
	}
	return phi
}

// EvaluateField computes the potential and gradient at x (L2P with forces).
func (l *Local) EvaluateField(x vec.V3) (phi float64, grad vec.V3) {
	return l.EvaluateFieldBuf(x, nil)
}

// EvaluateFieldBuf is EvaluateField with a caller-provided scratch buffer of
// length >= harmonics.Len(l.Degree) (nil allocates).
//
//treecode:hot
func (l *Local) EvaluateFieldBuf(x vec.V3, buf []complex128) (phi float64, grad vec.V3) {
	p := l.Degree
	r := harmonics.Regular(buf, x.Sub(l.Center), p)
	var gx, gy, gz complex128
	for n := 0; n <= p; n++ {
		for m := -n; m <= n; m++ {
			c := harmonics.Get(l.Coeff, p, n, m)
			if m >= 0 {
				if m == 0 {
					phi += real(c * cmplx.Conj(r[harmonics.Idx(n, 0)]))
				} else {
					phi += 2 * real(c*cmplx.Conj(r[harmonics.Idx(n, m)]))
				}
			}
			// d(conj R)/d* = conj(dR/d*):
			// dR/dx = (R_{n-1}^{m+1} - R_{n-1}^{m-1})/2
			// dR/dy = (R_{n-1}^{m+1} + R_{n-1}^{m-1})/(2i)
			// dR/dz = R_{n-1}^m
			rp := harmonics.Get(r, p, n-1, m+1)
			rm := harmonics.Get(r, p, n-1, m-1)
			gx += c * cmplx.Conj((rp-rm)/2)
			gy += c * cmplx.Conj((rp+rm)/complex(0, 2))
			gz += c * cmplx.Conj(harmonics.Get(r, p, n-1, m))
		}
	}
	return phi, vec.V3{X: real(gx), Y: real(gy), Z: real(gz)}
}

// Terms returns the number of series terms in a degree-p expansion, the
// paper's serial cost metric: (p+1)^2 (full -n..n index range).
func Terms(p int) int64 { return int64(p+1) * int64(p+1) }
