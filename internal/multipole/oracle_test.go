package multipole

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"treecode/internal/harmonics"
	"treecode/internal/vec"
)

// The three O(p^4) convolutions written straight from the symmetric
// formulas: every term goes through harmonics.Get, which resolves negative
// orders by symmetry and returns 0 out of range. They are the reference the
// segmented production kernels must reproduce bit for bit.

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

// TestTranslationKernelsMatchOracle pins the segmented M2M, M2L and L2L
// kernels to the Get-indexed convolutions: every coefficient, for every
// degree pair and shift, through the public constructors and the
// accumulate forms at their documented scratch sizes.
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

				// M2L: the constructor, and accumulation into a local that
				// already holds another source's conversion.
				center := src.Center.Add(shift.Scale(3))
				wantM := oracleM2L(src, center, pOut)
				if i, ok := bitsEqual(src.M2L(center, pOut).Coeff, wantM.Coeff); !ok {
					t.Fatalf("M2L p=%d pOut=%d |t|=%g: coefficient %d is %v, oracle %v", p, pOut, h, i, src.M2L(center, pOut).Coeff[i], wantM.Coeff[i])
				}
				other := randomExpansion(rng, src.Center.Sub(shift), p, h)
				acc := other.M2L(center, pOut)
				wantAcc := append([]complex128(nil), acc.Coeff...)
				for i := range wantAcc {
					wantAcc[i] += wantM.Coeff[i]
				}
				acc.AccumulateM2L(src, make([]complex128, harmonics.Len(p+pOut)))
				if i, ok := bitsEqual(acc.Coeff, wantAcc); !ok {
					t.Fatalf("AccumulateM2L p=%d pOut=%d |t|=%g: coefficient %d differs", p, pOut, h, i)
				}
			}
		}
	}
}

// oracleTranslate is the M2M constructor over oracleM2M.
func oracleTranslate(e *Expansion, newCenter vec.V3, pOut int) []complex128 {
	out := NewExpansion(newCenter, pOut)
	oracleM2M(out, e)
	return out.Coeff
}

// TestTranslationKernelsAllocateNothing pins the accumulate forms at zero
// allocations given their documented scratch: Len(e.Degree) for M2M,
// Len(src.Degree+l.Degree) for M2L and Len(src.Degree) for L2L.
func TestTranslationKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, p := range []int{8, 13} {
		src := randomExpansion(rng, vec.V3{}, p, 1)
		dst := NewExpansion(vec.V3{X: 0.3, Y: 0.2, Z: -0.1}, p)
		loc := NewLocal(vec.V3{X: 3, Y: 1, Z: 2}, p)
		child := NewLocal(loc.Center.Add(vec.V3{X: 0.2, Y: -0.1, Z: 0.1}), p)
		m2m := make([]complex128, harmonics.Len(p))
		m2l := make([]complex128, harmonics.Len(2*p))
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
		} {
			if a := testing.AllocsPerRun(20, f); a != 0 {
				t.Errorf("%s at p=%d allocates %v times per call", name, p, a)
			}
		}
	}
}

var sinkPhi float64
