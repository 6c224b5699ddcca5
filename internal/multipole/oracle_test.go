package multipole

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"treecode/internal/harmonics"
	"treecode/internal/rotation"
	"treecode/internal/vec"
)

// The three O(p^4) convolutions written straight from the symmetric
// formulas: every term goes through harmonics.Get, which resolves negative
// orders by symmetry and returns 0 out of range. They are the reference the
// production kernels must reproduce: the segmented M2M and L2L bit for bit,
// the rotation M2L to roundoff (m2lMismatch).

// oracleM2M is AccumulateTranslatedBuf over the full k-range.
func oracleM2M(e, src *Expansion) {
	t := src.Center.Sub(e.Center)
	rt := harmonics.Regular(nil, t, e.Degree)
	for n := 0; n <= e.Degree; n++ {
		for m := 0; m <= n; m++ {
			var sum complex128
			for j := 0; j <= n; j++ {
				for k := -j; k <= j; k++ {
					mk := m - k
					if mk > n-j || -mk > n-j {
						continue
					}
					sum += cmplx.Conj(harmonics.Get(rt, e.Degree, j, k)) *
						harmonics.Get(src.Coeff, src.Degree, n-j, mk)
				}
			}
			e.Coeff[harmonics.Idx(n, m)] += sum
		}
	}
	e.AbsCharge += src.AbsCharge
	if r := src.Radius + t.Norm(); r > e.Radius {
		e.Radius = r
	}
}

// TestTranslateOpsCountsOracleTerms: TranslateOps, the upward plan's M2M
// cost, is the number of (j, k) terms oracleM2M sums over all output
// coefficients of a degree-p translation, counted here by brute force.
func TestTranslateOpsCountsOracleTerms(t *testing.T) {
	for p := 0; p <= 20; p++ {
		var want int64
		for n := 0; n <= p; n++ {
			for m := 0; m <= n; m++ {
				for j := 0; j <= n; j++ {
					for k := -j; k <= j; k++ {
						if mk := m - k; mk <= n-j && -mk <= n-j {
							want++
						}
					}
				}
			}
		}
		if got := TranslateOps(p); got != want {
			t.Errorf("TranslateOps(%d) = %d, oracle sums %d terms", p, got, want)
		}
	}
}

// oracleM2L is M2L over the full m-range.
func oracleM2L(e *Expansion, center vec.V3, pOut int) *Local {
	l := NewLocal(center, pOut)
	t := center.Sub(e.Center)
	st := harmonics.Irregular(nil, t, pOut+e.Degree)
	for j := 0; j <= pOut; j++ {
		sign := 1.0
		if j%2 == 1 {
			sign = -1
		}
		for k := 0; k <= j; k++ {
			var sum complex128
			for n := 0; n <= e.Degree; n++ {
				for m := -n; m <= n; m++ {
					sum += harmonics.Get(e.Coeff, e.Degree, n, m) *
						harmonics.Get(st, pOut+e.Degree, j+n, k+m)
				}
			}
			l.Coeff[harmonics.Idx(j, k)] = complex(sign, 0) * sum
		}
	}
	return l
}

// oracleL2L is Local.Translate over the full k-range.
func oracleL2L(l *Local, newCenter vec.V3, pOut int) *Local {
	out := NewLocal(newCenter, pOut)
	w := newCenter.Sub(l.Center)
	rw := harmonics.Regular(nil, w, l.Degree)
	for n := 0; n <= pOut; n++ {
		for m := 0; m <= n; m++ {
			var sum complex128
			for j := n; j <= l.Degree; j++ {
				for k := -j; k <= j; k++ {
					km := k - m
					if km > j-n || -km > j-n {
						continue
					}
					sum += harmonics.Get(l.Coeff, l.Degree, j, k) *
						cmplx.Conj(harmonics.Get(rw, l.Degree, j-n, km))
				}
			}
			out.Coeff[harmonics.Idx(n, m)] = sum
		}
	}
	return out
}

// oracleDegrees and oracleShifts span the kernels' inputs: degrees from
// the trivial expansion to beyond the deepest carried degree, output
// degrees below, at and above the source's, and shift lengths over six
// decades (0 only where the operator allows it).
var (
	oracleDegrees = []int{0, 1, 2, 4, 8, 13, 16, 20}
	oracleShifts  = []float64{1e-3, 0.1, 1, 10, 1e3}
)

func outDegrees(p int) []int {
	if p == 0 {
		return []int{0, 3}
	}
	return []int{p / 2, p, p + 3}
}

// bitsEqual reports whether got matches want to the bit on amd64, where Go
// never fuses a multiply and an add. Elsewhere the compiler may fuse them
// (arm64, ppc64le, s390x, riscv64), in different places in the reference
// and the production loops, so the arrays must agree to 1e-14 of want's
// largest entry.
func bitsEqual(got, want []complex128) (int, bool) {
	if runtime.GOARCH != "amd64" {
		var scale, diff float64
		for i := range want {
			scale = math.Max(scale, cmplx.Abs(want[i]))
			diff = math.Max(diff, cmplx.Abs(got[i]-want[i]))
		}
		return 0, diff <= 1e-14*scale
	}
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return i, false
		}
	}
	return 0, true
}

// randomExpansion returns the degree-p expansion of a random cluster of
// radius 0.3*size about center, so coefficients scale with the shift the
// test pairs them with.
func randomExpansion(rng *rand.Rand, center vec.V3, p int, size float64) *Expansion {
	pos, q := randomCluster(rng, 12, center, 0.3*size)
	return P2M(pos, q, center, p)
}

func randomDirection(rng *rand.Rand) vec.V3 {
	return vec.FromSpherical(1, math.Acos(2*rng.Float64()-1), 2*math.Pi*rng.Float64())
}

// TestTranslationKernelsMatchOracle pins the segmented M2M and L2L kernels
// bitwise, and the rotation M2L within m2lMismatch's roundoff, to the
// Get-indexed convolutions: every coefficient, for every degree pair and
// shift, through the public constructors and the accumulate forms at their
// documented scratch sizes.
func TestTranslationKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, p := range oracleDegrees {
		for _, pOut := range outDegrees(p) {
			for _, h := range append([]float64{0}, oracleShifts...) {
				src := randomExpansion(rng, vec.V3{X: 0.2, Y: -0.1, Z: 0.3}, p, math.Max(h, 1e-3))
				shift := randomDirection(rng).Scale(h)

				// M2M into a non-empty expansion, as the upward pass does
				// from its second child on.
				dst := randomExpansion(rng, src.Center.Add(shift), pOut, math.Max(h, 1e-3))
				want := &Expansion{Center: dst.Center, Degree: pOut,
					Coeff: append([]complex128(nil), dst.Coeff...), AbsCharge: dst.AbsCharge, Radius: dst.Radius}
				oracleM2M(want, src)
				dst.AccumulateTranslatedBuf(src, make([]complex128, harmonics.Len(pOut)))
				if i, ok := bitsEqual(dst.Coeff, want.Coeff); !ok {
					t.Fatalf("M2M p=%d pOut=%d |t|=%g: coefficient %d is %v, oracle %v", p, pOut, h, i, dst.Coeff[i], want.Coeff[i])
				}
				if dst.AbsCharge != want.AbsCharge || dst.Radius != want.Radius {
					t.Fatalf("M2M p=%d pOut=%d |t|=%g: cluster statistics differ", p, pOut, h)
				}
				if i, ok := bitsEqual(src.Translate(dst.Center, pOut).Coeff, oracleTranslate(src, dst.Center, pOut)); !ok {
					t.Fatalf("Translate p=%d pOut=%d |t|=%g: coefficient %d differs", p, pOut, h, i)
				}

				// L2L of a local built by M2L, into a fresh and a non-empty
				// local.
				loc := src.M2L(src.Center.Add(randomDirection(rng).Scale(3*math.Max(h, 1e-3))), p)
				wantL := oracleL2L(loc, loc.Center.Add(shift), pOut)
				if i, ok := bitsEqual(loc.Translate(loc.Center.Add(shift), pOut).Coeff, wantL.Coeff); !ok {
					t.Fatalf("L2L p=%d pOut=%d |t|=%g: coefficient %d differs", p, pOut, h, i)
				}
				into := src.M2L(wantL.Center, pOut)
				wantInto := append([]complex128(nil), into.Coeff...)
				for i := range wantInto {
					wantInto[i] += wantL.Coeff[i]
				}
				into.AccumulateL2L(loc, make([]complex128, harmonics.Len(p)))
				if i, ok := bitsEqual(into.Coeff, wantInto); !ok {
					t.Fatalf("AccumulateL2L p=%d pOut=%d |t|=%g: coefficient %d differs", p, pOut, h, i)
				}
				if h == 0 {
					continue // M2L needs well-separated centers
				}

				// M2L: the constructor within roundoff of the convolution,
				// and accumulation into a local that already holds another
				// source's conversion, which must add exactly the value the
				// constructor returns.
				center := src.Center.Add(shift.Scale(3))
				conv := src.M2L(center, pOut).Coeff
				if msg := m2lMismatch(src, center, conv, pOut); msg != "" {
					t.Fatalf("M2L p=%d pOut=%d |t|=%g: %s", p, pOut, h, msg)
				}
				other := randomExpansion(rng, src.Center.Sub(shift), p, h)
				acc := other.M2L(center, pOut)
				wantAcc := append([]complex128(nil), acc.Coeff...)
				for i := range wantAcc {
					wantAcc[i] += conv[i]
				}
				acc.AccumulateM2L(src, make([]complex128, M2LBufLen(p, pOut)))
				if i, ok := bitsEqual(acc.Coeff, wantAcc); !ok {
					t.Fatalf("AccumulateM2L p=%d pOut=%d |t|=%g: coefficient %d differs", p, pOut, h, i)
				}
			}
		}
	}
}

// accumulateM2LRef is the AccumulateM2L of the first rotation M2L, kept
// verbatim as the bitwise reference of the production one, which sums two
// axial outputs per pass where this sums one. Only its scratch changed: it
// takes buf of M2LBufLen(src.Degree, l.Degree) and hands the rotations
// everything past the two expansions, as the production kernel does. Its
// rotations are the production rotation.RotateY, which rotation's
// TestRotateYMatchesReference pins to the first rotation M2L's body.
func accumulateM2LRef(l *Local, src *Expansion, buf []complex128) {
	ps, pl := src.Degree, l.Degree
	a := buf[:harmonics.Len(ps)]
	b := buf[len(a):][:harmonics.Len(pl)]
	rot := buf[len(a)+len(b):]
	f := rot[:ps+pl+1]

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
	rotation.RotateY(a, ps, rotation.Multipole, cosb, -sinb, rot)

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
	rotation.RotateY(b, pl, rotation.Local, cosb, sinb, rot)
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

// m2lRef is the M2L constructor over accumulateM2LRef: a local filled
// with -0, the additive identity, then accumulated into.
func m2lRef(src *Expansion, center vec.V3, pOut int) []complex128 {
	l := NewLocal(center, pOut)
	negZero := complex(math.Copysign(0, -1), math.Copysign(0, -1))
	for i := range l.Coeff {
		l.Coeff[i] = negZero
	}
	accumulateM2LRef(l, src, make([]complex128, M2LBufLen(src.Degree, pOut)))
	return l.Coeff
}

// TestAccumulateM2LMatchesReference pins AccumulateM2L to
// accumulateM2LRef bit for bit: source degrees 0-30 and 64 (one above
// the largest degree rotation.Plan rotates in stack scratch), local
// degrees below, at and above the source's, every m2lDirections shift
// (the +-z axes, where the rotations run at beta = 0 and pi with sin beta
// = +-0, the xy-plane, where beta = pi/2, and generic directions) plus a
// random one, through the M2L constructor and by accumulation into an
// empty (+0) and a non-empty local.
func TestAccumulateM2LMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	degrees := []int{64}
	for p := 0; p <= 30; p++ {
		degrees = append(degrees, p)
	}
	for _, p := range degrees {
		for _, pOut := range []int{0, p / 2, p, p + 3} {
			for _, dir := range append(m2lDirections, randomDirection(rng)) {
				src := randomExpansion(rng, vec.V3{X: 0.2, Y: -0.1, Z: 0.3}, p, 1)
				center := src.Center.Add(dir.Scale(3))
				fail := func(how string, got, want []complex128) {
					t.Helper()
					if i, ok := bitsEqual(got, want); !ok {
						t.Fatalf("p=%d pOut=%d dir=%v, %s: coefficient %d is %v, reference %v", p, pOut, dir, how, i, got[i], want[i])
					}
				}
				fail("constructor", src.M2L(center, pOut).Coeff, m2lRef(src, center, pOut))

				buf := make([]complex128, M2LBufLen(p, pOut))
				empty, emptyRef := NewLocal(center, pOut), NewLocal(center, pOut)
				empty.AccumulateM2L(src, buf)
				accumulateM2LRef(emptyRef, src, buf)
				fail("into an empty local", empty.Coeff, emptyRef.Coeff)

				other := randomExpansion(rng, src.Center.Sub(dir), p, 1)
				full, fullRef := other.M2L(center, pOut), other.M2L(center, pOut)
				full.AccumulateM2L(src, buf)
				accumulateM2LRef(fullRef, src, buf)
				fail("into a non-empty local", full.Coeff, fullRef.Coeff)
			}
		}
	}
}

// m2lTol is the M2L roundoff allowance, in units of eps times the
// per-degree Schmidt scale (m2lScale) times pSrc+pLocal+1, the number of
// source degrees and local degrees each output coefficient passes through.
// Over degrees 0-30 and shifts along +z, -z, in the xy-plane and in random
// directions, the largest ratio measured between the rotation kernel and
// the convolution is 4.25; a sign error in any Delta symmetry gives an
// error of the scale itself.
const m2lTol = 16

// m2lMismatch compares the local coefficients got, converted from src to
// center at degree pOut, with oracleM2L degree by degree: the 2-norm of
// degree j's Schmidt-normalized difference (over -j <= k <= j) must be at
// most m2lTol*(pSrc+pOut+1)*eps*s_j. It returns "" if every degree
// passes, else a description of the worst.
func m2lMismatch(src *Expansion, center vec.V3, got []complex128, pOut int) string {
	want := oracleM2L(src, center, pOut).Coeff
	scale := m2lScale(src, center.Sub(src.Center).Norm(), pOut)
	for j := 0; j <= pOut; j++ {
		var e float64
		for k := -j; k <= j; k++ {
			d := (harmonics.Get(got, pOut, j, k) - harmonics.Get(want, pOut, j, k)) /
				complex(schmidtNorm(j, k), 0)
			e += real(d)*real(d) + imag(d)*imag(d)
		}
		tol := m2lTol * float64(src.Degree+pOut+1) * 0x1p-52 * scale[j]
		if e = math.Sqrt(e); !(e <= tol) {
			return fmt.Sprintf("degree %d differs from the convolution by %g, above %g (%.3g eps*s_j per unit degree)",
				j, e, tol, e/(0x1p-52*scale[j]*float64(src.Degree+pOut+1)))
		}
	}
	return ""
}

// schmidtNorm returns N_n^m = sqrt((n-m)!(n+m)!), the factor between our
// coefficients and Schmidt-normalized ones: a multipole M_n^m is
// M^_n^m/N_n^m and a local L_j^k is N_j^k L^_j^k. N_n^{-m} = N_n^m.
func schmidtNorm(n, m int) float64 {
	if m < 0 {
		m = -m
	}
	f := 1.0
	for i := 2; i <= n-m; i++ {
		f *= float64(i)
	}
	g := 1.0
	for i := 2; i <= n+m; i++ {
		g *= float64(i)
	}
	return math.Sqrt(f) * math.Sqrt(g)
}

// m2lScale returns, for each local degree j <= pOut, the scale of the
// terms a degree-j M2L output sums, in Schmidt normalization:
//
//	s_j = sum_n C(j+n, n) |M^_n| / r^{j+n+1},
//
// with |M^_n| the 2-norm of src's Schmidt-normalized degree-n row over
// -n <= m <= n. In the frame where the shift is r zhat, each term of the
// axial conversion of L^_j^k is at most C(j+n, n) |M^_n^{-k}| / r^{j+n+1}
// (the k = 0 ratio (j+n)!/(N_n^k N_j^k) is the largest), and rotations
// preserve each row's norm, so s_j bounds |L^_j| and the terms of either
// kernel's sum.
func m2lScale(src *Expansion, r float64, pOut int) []float64 {
	rows := make([]float64, src.Degree+1)
	for n := range rows {
		var s float64
		for m := -n; m <= n; m++ {
			c := harmonics.Get(src.Coeff, src.Degree, n, m) * complex(schmidtNorm(n, m), 0)
			s += real(c)*real(c) + imag(c)*imag(c)
		}
		rows[n] = math.Sqrt(s)
	}
	scale := make([]float64, pOut+1)
	for j := range scale {
		binom := 1.0 // C(j+n, n)
		for n, row := range rows {
			if n > 0 {
				binom = binom * float64(j+n) / float64(n)
			}
			scale[j] += binom * row / math.Pow(r, float64(j+n+1))
		}
	}
	return scale
}

// m2lDirections are the shift directions of the M2L edge cases: the +z and
// -z axes, where the azimuth is arbitrary, two directions in the xy-plane,
// where the polar angle is pi/2, and two generic ones.
var m2lDirections = []vec.V3{
	{Z: 1}, {Z: -1},
	{X: 1}, {X: -0.6, Y: 0.8},
	{X: 0.48, Y: -0.6, Z: 0.64}, {X: -0.36, Y: -0.48, Z: -0.8},
}

// TestM2LEdgeCasesMatchOracle runs the rotation M2L against the
// convolution at every source degree 0-30, with local degrees below, at
// and above the source's, along every m2lDirections shift, at two
// lengths.
func TestM2LEdgeCasesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for p := 0; p <= 30; p++ {
		for _, pOut := range []int{0, p / 2, p, min(p+3, 30), 30} {
			for _, dir := range m2lDirections {
				for _, h := range []float64{0.05, 20} {
					src := randomExpansion(rng, vec.V3{X: 0.2, Y: -0.1, Z: 0.3}, p, h)
					center := src.Center.Add(dir.Scale(3 * h))
					if msg := m2lMismatch(src, center, src.M2L(center, pOut).Coeff, pOut); msg != "" {
						t.Fatalf("p=%d pOut=%d dir=%v |t|=%g: %s", p, pOut, dir, 3*h, msg)
					}
				}
			}
		}
	}
}

// FuzzM2L maps arbitrary inputs onto an M2L: (dx, dy, dz) give the shift's
// direction (the +z axis when they carry no usable direction), the
// fractional parts of ratio and logScale pick the source cluster's radius
// as a fraction 0.01-0.99 of the shift and the shift's length in
// [1e-2, 1e2), and k picks the source and local degrees (0-30 each) and
// the cluster. The conversion must be finite, within m2lMismatch's
// roundoff of the convolution, and bitwise accumulateM2LRef's.
func FuzzM2L(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 0.5, 0.5, 8*31+8)
	f.Add(0.0, 0.0, -1.0, 0.3, 0.9, 13*31+13)
	f.Add(1.0, -2.0, 0.0, 0.2, 0.1, 0)
	f.Add(0.3, 0.4, -0.5, 0.99, 0.75, 30*31+30)
	f.Add(1e-170, 1e-170, 1.0, 0.6, 0.4, 4*31+20)
	f.Add(-1.0, 0.5, 0.25, 0.1, 0.0, 20*31+4)
	f.Fuzz(func(t *testing.T, dx, dy, dz, ratio, logScale float64, k int) {
		frac := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			v = math.Abs(v)
			return v - math.Floor(v)
		}
		dir := vec.V3{Z: 1}
		if m := math.Max(math.Abs(dx), math.Max(math.Abs(dy), math.Abs(dz))); m > 0 && !math.IsInf(m, 0) {
			dir = vec.V3{X: dx / m, Y: dy / m, Z: dz / m}
			dir = dir.Scale(1 / dir.Norm())
		}
		if k < 0 {
			k = -(k + 1)
		}
		p, pOut := k%31, (k/31)%31
		r := math.Pow(10, -2+4*frac(logScale))
		rng := rand.New(rand.NewSource(int64(k)))
		c := vec.V3{X: 0.2, Y: -0.1, Z: 0.3}.Scale(r)
		pos, q := randomCluster(rng, 12, c, (0.01+0.98*frac(ratio))*r)
		src := P2M(pos, q, c, p)
		center := c.Add(dir.Scale(r))
		got := src.M2L(center, pOut).Coeff
		for i, v := range got {
			if math.IsNaN(real(v)) || math.IsNaN(imag(v)) || math.IsInf(real(v), 0) || math.IsInf(imag(v), 0) {
				t.Fatalf("p=%d pOut=%d shift %v: coefficient %d is %v", p, pOut, dir.Scale(r), i, v)
			}
		}
		if msg := m2lMismatch(src, center, got, pOut); msg != "" {
			t.Fatalf("p=%d pOut=%d shift %v: %s", p, pOut, dir.Scale(r), msg)
		}
		if i, ok := bitsEqual(got, m2lRef(src, center, pOut)); !ok {
			t.Fatalf("p=%d pOut=%d shift %v: coefficient %d differs from the reference kernel's", p, pOut, dir.Scale(r), i)
		}
	})
}

// oracleTranslate is the M2M constructor over oracleM2M.
func oracleTranslate(e *Expansion, newCenter vec.V3, pOut int) []complex128 {
	out := NewExpansion(newCenter, pOut)
	oracleM2M(out, e)
	return out.Coeff
}

// TestTranslationKernelsAllocateNothing pins the accumulate forms at zero
// allocations given their documented scratch: Len(e.Degree) for M2M,
// M2LBufLen(src.Degree, l.Degree) for M2L and Len(src.Degree) for L2L. P2M
// needs no scratch, and the harmonic tables allocate nothing into a sized
// dst. Degree 64, far above the FMM's, checks that the kernels stay
// allocation-free once the rotation tables have grown that far.
func TestTranslationKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, p := range []int{8, 13, 64} {
		src := randomExpansion(rng, vec.V3{}, p, 1)
		dst := NewExpansion(vec.V3{X: 0.3, Y: 0.2, Z: -0.1}, p)
		loc := NewLocal(vec.V3{X: 3, Y: 1, Z: 2}, p)
		child := NewLocal(loc.Center.Add(vec.V3{X: 0.2, Y: -0.1, Z: 0.1}), p)
		m2m := make([]complex128, harmonics.Len(p))
		m2l := make([]complex128, M2LBufLen(p, p))
		irr := make([]complex128, harmonics.Len(2*p))
		l2l := make([]complex128, harmonics.Len(p))
		for name, f := range map[string]func(){
			"M2M": func() { dst.AccumulateTranslatedBuf(src, m2m) },
			"M2L": func() { loc.AccumulateM2L(src, m2l) },
			"L2L": func() { child.AccumulateL2L(loc, l2l) },
			"L2P": func() { sinkPhi += loc.EvaluateBuf(child.Center, l2l) },
			"L2P field": func() {
				phi, _ := loc.EvaluateFieldBuf(child.Center, l2l)
				sinkPhi += phi
			},
			"P2M":       func() { dst.AddParticleAt(child.Center, 0.5, nil) },
			"Regular":   func() { harmonics.Regular(m2m, child.Center, p) },
			"Irregular": func() { harmonics.Irregular(irr, loc.Center, 2*p) },
		} {
			if a := testing.AllocsPerRun(20, f); a != 0 {
				t.Errorf("%s at p=%d allocates %v times per call", name, p, a)
			}
		}
	}
}

var sinkPhi float64
