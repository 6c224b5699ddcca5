package multipole

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"treecode/internal/harmonics"
	"treecode/internal/vec"
)

// TestEvaluateFusedMatchesPrefix: the fused single-pass M2P kernel must
// agree with the two-pass reference to roundoff across degrees, prefix
// clamping included.
func TestEvaluateFusedMatchesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	center := vec.V3{X: 0.3, Y: -0.2, Z: 0.1}
	pos, q := randomCluster(rng, 60, center, 0.4)
	for _, p := range []int{0, 1, 2, 4, 8, 15} {
		e := NewExpansion(center, p)
		for i := range pos {
			e.AddParticle(pos[i], q[i])
		}
		for trial := 0; trial < 50; trial++ {
			x := vec.V3{
				X: 3 * (2*rng.Float64() - 1),
				Y: 3 * (2*rng.Float64() - 1),
				Z: 3 * (2*rng.Float64() - 1),
			}
			if x.Dist(center) < 1 {
				continue
			}
			for _, pe := range []int{0, p / 2, p, p + 3} {
				want := e.EvaluatePrefix(x, pe, nil)
				got := e.EvaluateFused(x, pe)
				if d := math.Abs(got - want); d > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("p=%d prefix=%d at %v: fused %v, reference %v (diff %g)", p, pe, x, got, want, d)
				}
			}
		}
	}
}

// TestEvaluateFusedAllocs pins the fused kernel at zero allocations.
func TestEvaluateFusedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	center := vec.V3{}
	pos, q := randomCluster(rng, 30, center, 0.5)
	e := NewExpansion(center, 8)
	for i := range pos {
		e.AddParticle(pos[i], q[i])
	}
	x := vec.V3{X: 2, Y: 1, Z: -1.5}
	if a := testing.AllocsPerRun(100, func() {
		e.EvaluateFused(x, 8)
	}); a != 0 {
		t.Fatalf("EvaluateFused allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		TruncationBoundFast(1.5, 0.5, 2.0, 8)
	}); a != 0 {
		t.Fatalf("TruncationBoundFast allocates %v times per call", a)
	}
	for _, p := range []int{8, 13} {
		e := P2M(pos, q, center, p)
		if a := testing.AllocsPerRun(100, func() {
			e.EvaluateFieldFused(x, p)
		}); a != 0 {
			t.Fatalf("EvaluateFieldFused at degree %d allocates %v times per call", p, a)
		}
	}
}

// TestTruncationBoundFastMatchesPow: the fast bound must agree with the
// math.Pow form to machine precision, including the r <= a singular case.
func TestTruncationBoundFastMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		A := 10 * rng.Float64()
		a := 0.01 + rng.Float64()
		r := a * (1 + 3*rng.Float64())
		p := rng.Intn(30)
		want := TruncationBound(A, a, r, p)
		got := TruncationBoundFast(A, a, r, p)
		if d := math.Abs(got - want); d > 1e-12*want {
			t.Fatalf("A=%v a=%v r=%v p=%d: fast %v, pow %v", A, a, r, p, got, want)
		}
	}
	if !math.IsInf(TruncationBoundFast(1, 2, 2, 4), 1) {
		t.Fatal("fast bound at r <= a must be +Inf")
	}
	if got := powInt(1.5, 0); got != 1 {
		t.Fatalf("powInt(x, 0) = %v", got)
	}
}

func BenchmarkEvaluatePrefix(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pos, q := randomCluster(rng, 40, vec.V3{}, 0.5)
	e := NewExpansion(vec.V3{}, 6)
	for i := range pos {
		e.AddParticle(pos[i], q[i])
	}
	buf := make([]complex128, 64)
	x := vec.V3{X: 2, Y: 0.5, Z: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvaluatePrefix(x, 6, buf)
	}
}

// m2pSink and fieldSink keep the kernel benchmarks' results live.
var (
	m2pSink   float64
	fieldSink vec.V3
)

// benchmarkM2P times one M2P kernel at degrees 4, 8 and 13, the benchmark's
// kernel-probe degrees, cycling over 64 targets in random directions at
// distances 1.5-4 from a radius-0.5 cluster (a/r 0.125-0.33).
func benchmarkM2P(b *testing.B, eval func(e *Expansion, x vec.V3, p int)) {
	rng := rand.New(rand.NewSource(5))
	pos, q := randomCluster(rng, 40, vec.V3{}, 0.5)
	targets := make([]vec.V3, 64)
	for i := range targets {
		d := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		targets[i] = d.Scale((1.5 + 2.5*rng.Float64()) / d.Norm())
	}
	for _, p := range []int{4, 8, 13} {
		e := P2M(pos, q, vec.V3{}, p)
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval(e, targets[i&63], p)
			}
		})
	}
}

// BenchmarkEvaluateFused times the production potential kernel (the AVX2
// body where the CPU has it), under Go its pure-Go body, and under Ref the
// kernel that body replaced, so one binary compares the three.
func BenchmarkEvaluateFused(b *testing.B) {
	benchmarkM2P(b, func(e *Expansion, x vec.V3, p int) {
		m2pSink = e.EvaluateFused(x, p)
	})
	b.Run("Go", func(b *testing.B) {
		benchmarkM2P(b, func(e *Expansion, x vec.V3, p int) {
			m2pSink = e.evaluateFused(x, p, false)
		})
	})
	b.Run("Ref", func(b *testing.B) {
		benchmarkM2P(b, func(e *Expansion, x vec.V3, p int) {
			m2pSink = evaluateFusedRef(e, x, p)
		})
	})
}

// BenchmarkEvaluateFieldFused is BenchmarkEvaluateFused for the field
// kernel.
func BenchmarkEvaluateFieldFused(b *testing.B) {
	benchmarkM2P(b, func(e *Expansion, x vec.V3, p int) {
		_, fieldSink = e.EvaluateFieldFused(x, p)
	})
	b.Run("Go", func(b *testing.B) {
		benchmarkM2P(b, func(e *Expansion, x vec.V3, p int) {
			_, fieldSink = e.evaluateFieldFused(x, p, false)
		})
	})
	b.Run("Ref", func(b *testing.B) {
		benchmarkM2P(b, func(e *Expansion, x vec.V3, p int) {
			_, fieldSink = evaluateFieldFusedRef(e, x, p)
		})
	})
}

func BenchmarkEvaluateFieldBuf(b *testing.B) {
	buf := make([]complex128, harmonics.Len(14))
	benchmarkM2P(b, func(e *Expansion, x vec.V3, p int) {
		_, fieldSink = e.EvaluateFieldBuf(x, p, buf)
	})
}

// fieldFusedCase builds a degree-deg expansion of a fixed mixed-sign cluster
// and a target in direction dir (unit length) at the distance where the
// expansion's a/r equals ratio, everything scaled by scale. The expansion
// is assembled by M2M from an off-center P2M, as the upward pass builds
// internal nodes, so its m = 0 coefficients carry that pass's roundoff.
func fieldFusedCase(deg int, dir vec.V3, ratio, scale float64) (*Expansion, vec.V3) {
	rng := rand.New(rand.NewSource(17))
	center := vec.V3{X: 0.3, Y: -0.1, Z: 0.2}.Scale(scale)
	off := center.Add(vec.V3{X: 0.05, Y: 0.02, Z: -0.04}.Scale(scale))
	pos, q := randomCluster(rng, 24, off, 0.4*scale)
	e := NewExpansion(center, deg)
	e.AccumulateTranslated(P2M(pos, q, off, deg))
	return e, center.Add(dir.Scale(e.Radius / ratio))
}

// fieldFusedMismatch compares EvaluateFieldFused with the two-pass
// EvaluateFieldBuf at prefix degree p (fieldMismatch). It returns "" on
// agreement.
func fieldFusedMismatch(e *Expansion, x vec.V3, p int) string {
	phi, g := e.EvaluateFieldFused(x, p)
	wantPhi, wantG := e.EvaluateFieldBuf(x, p, nil)
	return fieldMismatch(e, x, phi, g, wantPhi, wantG)
}

// fieldMismatch compares a field result (phi, g) at x with a reference one.
// The tolerance is 1e-12 of the Theorem 1 scale of each series: A/(r-a)
// for the potential and A/(r-a)^2 for each gradient component. It returns
// "" on agreement.
func fieldMismatch(e *Expansion, x vec.V3, phi float64, g vec.V3, wantPhi float64, wantG vec.V3) string {
	gap := x.Dist(e.Center) - e.Radius
	tolPhi := 1e-12 * e.AbsCharge / gap
	tolG := tolPhi / gap
	for _, v := range []float64{phi, g.X, g.Y, g.Z} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("non-finite result phi %v grad %v", phi, g)
		}
	}
	if d := math.Abs(phi - wantPhi); !(d <= tolPhi) {
		return fmt.Sprintf("phi %v, reference %v (diff %g > %g)", phi, wantPhi, d, tolPhi)
	}
	for _, c := range [][2]float64{{g.X, wantG.X}, {g.Y, wantG.Y}, {g.Z, wantG.Z}} {
		if d := math.Abs(c[0] - c[1]); !(d <= tolG) {
			return fmt.Sprintf("grad %v, reference %v (diff %g > %g)", g, wantG, d, tolG)
		}
	}
	return ""
}

// TestEvaluateFieldFusedMatchesBuf: the single-pass field kernel agrees with
// the two-pass reference on the Theorem 1 scale at degrees 0-20, prefix
// degrees below, at and above the expansion's (clamping), targets on and
// off the z axis, a/r from 0.01 to 0.99 and lengths from 1e-8 to 1e8.
func TestEvaluateFieldFusedMatchesBuf(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dirs := []vec.V3{{Z: 1}, {Z: -1}}
	for len(dirs) < 6 {
		d := vec.V3{X: 2*rng.Float64() - 1, Y: 2*rng.Float64() - 1, Z: 2*rng.Float64() - 1}
		if n := d.Norm(); n > 0.1 && n <= 1 {
			dirs = append(dirs, d.Scale(1/n))
		}
	}
	for deg := 0; deg <= 20; deg++ {
		for _, ratio := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			for _, scale := range []float64{1e-8, 1e-3, 1, 1e3, 1e8} {
				for _, dir := range dirs {
					e, x := fieldFusedCase(deg, dir, ratio, scale)
					for _, p := range []int{0, deg / 2, deg - 1, deg, deg + 1, deg + 4} {
						if p < 0 {
							continue
						}
						if msg := fieldFusedMismatch(e, x, p); msg != "" {
							t.Fatalf("degree %d prefix %d a/r %v scale %v dir %v: %s", deg, p, ratio, scale, dir, msg)
						}
					}
				}
			}
		}
	}
}

// fuzzCase maps arbitrary fuzz inputs onto an expansion and a target:
// (dx, dy, dz) give the target's direction (the +z axis when they carry no
// usable direction), the fractional parts of ratio and logScale pick a/r in
// [0.01, 0.99) and a length scale in [1e-8, 1e8), and k picks the
// expansion's degree deg (0-20) and the prefix degree p, from -1 (the
// empty series) to deg+1 (clamped); k = 21 deg + deg gives p = deg.
func fuzzCase(dx, dy, dz, ratio, logScale float64, k int) (e *Expansion, x vec.V3, deg, p int) {
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
	deg = k % 21
	p = (k/21+1)%(deg+3) - 1
	e, x = fieldFusedCase(deg, dir, 0.01+0.98*frac(ratio), math.Pow(10, -8+16*frac(logScale)))
	return e, x, deg, p
}

// addFuzzSeeds gives both kernel fuzzers the same seed corpus.
func addFuzzSeeds(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 0.5, 0.5, 8*21+8)    // +z axis, degree 8
	f.Add(0.0, 0.0, -2.0, 0.3, 0.9, 13*21+13) // -z axis, degree 13
	f.Add(1.0, -2.0, 0.5, 0.2, 0.1, 0)        // p = 0
	f.Add(0.3, 0.4, -0.5, 0.99, 0.75, 20*21+20)
	f.Add(-1.0, 0.5, 0.25, 0.9999, 0.0, 12*21+12) // a/r near 1
	f.Add(0.5, 0.5, 0.5, 0.5, 0.5, 20*21+4)       // degree 4, p = -1
}

// sameBits reports whether a and b are the same float64, bit for bit, or
// both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// bodiesMismatch evaluates both fused kernels at (x, p) through the
// dispatched body (the AVX2 assembly where the CPU has it) and the Go
// body, and returns "" when every result is bitwise the same.
func bodiesMismatch(e *Expansion, x vec.V3, p int) string {
	if got, want := e.EvaluateFused(x, p), e.evaluateFused(x, p, false); !sameBits(got, want) {
		return fmt.Sprintf("EvaluateFused %v (%#x), Go body %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	phi, g := e.EvaluateFieldFused(x, p)
	wantPhi, wantG := e.evaluateFieldFused(x, p, false)
	if !sameBits(phi, wantPhi) || !sameBits(g.X, wantG.X) || !sameBits(g.Y, wantG.Y) || !sameBits(g.Z, wantG.Z) {
		return fmt.Sprintf("EvaluateFieldFused %v %v, Go body %v %v", phi, g, wantPhi, wantG)
	}
	return ""
}

// FuzzEvaluateFieldFused maps arbitrary inputs onto a field evaluation
// (fuzzCase). The fused kernel must return bitwise its Go body's result,
// and finite values within fieldMismatch's tolerance of the two-pass
// reference and of the kernel it replaced, evaluateFieldFusedRef. At p < 0
// it must return the empty series.
func FuzzEvaluateFieldFused(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, dx, dy, dz, ratio, logScale float64, k int) {
		e, x, deg, p := fuzzCase(dx, dy, dz, ratio, logScale, k)
		if msg := bodiesMismatch(e, x, p); msg != "" {
			t.Fatalf("degree %d prefix %d at %v: %s", deg, p, x, msg)
		}
		if p < 0 {
			if phi, g := e.EvaluateFieldFused(x, p); phi != 0 || g != (vec.V3{}) {
				t.Fatalf("degree %d prefix %d: %v %v, want the empty series", deg, p, phi, g)
			}
			return
		}
		if msg := fieldFusedMismatch(e, x, p); msg != "" {
			t.Fatalf("degree %d prefix %d at %v: %s", deg, p, x, msg)
		}
		phi, g := e.EvaluateFieldFused(x, p)
		refPhi, refG := evaluateFieldFusedRef(e, x, p)
		if msg := fieldMismatch(e, x, phi, g, refPhi, refG); msg != "" {
			t.Fatalf("degree %d prefix %d at %v, against evaluateFieldFusedRef: %s", deg, p, x, msg)
		}
	})
}

// FuzzEvaluateFused is FuzzEvaluateFieldFused for the potential kernel, the
// one potential M2P in production: on the same inputs, EvaluateFused must
// return bitwise its Go body's result, and a finite value within 1e-12 of
// the Theorem 1 scale A/(r-a) of the two-pass EvaluatePrefix and of the
// kernel it replaced, evaluateFusedRef. At p < 0 it must return 0.
func FuzzEvaluateFused(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, dx, dy, dz, ratio, logScale float64, k int) {
		e, x, deg, p := fuzzCase(dx, dy, dz, ratio, logScale, k)
		if msg := bodiesMismatch(e, x, p); msg != "" {
			t.Fatalf("degree %d prefix %d at %v: %s", deg, p, x, msg)
		}
		phi := e.EvaluateFused(x, p)
		if p < 0 {
			if phi != 0 {
				t.Fatalf("degree %d prefix %d: potential %v, want the empty series", deg, p, phi)
			}
			return
		}
		tol := 1e-12 * e.AbsCharge / (x.Dist(e.Center) - e.Radius)
		if math.IsNaN(phi) || math.IsInf(phi, 0) {
			t.Fatalf("degree %d prefix %d at %v: non-finite potential %v", deg, p, x, phi)
		}
		for _, ref := range []struct {
			name string
			want float64
		}{
			{"EvaluatePrefix", e.EvaluatePrefix(x, p, nil)},
			{"evaluateFusedRef", evaluateFusedRef(e, x, p)},
		} {
			if d := math.Abs(phi - ref.want); !(d <= tol) {
				t.Fatalf("degree %d prefix %d at %v: potential %v, %s %v (diff %g > %g)", deg, p, x, phi, ref.name, ref.want, d, tol)
			}
		}
	})
}

// scaleWindowRatios and scaleWindowDirs are TestFusedScaleWindow's a/r
// values and target directions: +z, -z, x and a generic one.
var (
	scaleWindowRatios = []float64{0.01, 0.5, 0.99}
	scaleWindowDirs   = []vec.V3{{Z: 1}, {Z: -1}, {X: 1}, vec.V3{X: 0.3, Y: -0.5, Z: 0.8}.Scale(1 / math.Sqrt(0.98))}
)

// TestFusedScaleWindow: factoring the phase S_m^m out of each column must
// not narrow the range of lengths over which the fused kernels are
// accurate. Over degrees 0-30, a/r 0.01, 0.5 and 0.99, targets on +z, -z,
// x and a generic direction, and lengths 1e-30 to 1e30 by decades, the
// scale-1 EvaluatePrefix and EvaluateFieldBuf values divided by s (s^2 for
// the gradient) are the truth. Wherever the replaced kernel
// (evaluateFusedRef, evaluateFieldFusedRef) is within 1e-12 of the
// Theorem 1 scale of it, the production kernel must be too.
func TestFusedScaleWindow(t *testing.T) {
	var cases, refOK, newOK, refFieldOK, newFieldOK int
	for deg := 0; deg <= 30; deg++ {
		for _, ratio := range scaleWindowRatios {
			for _, dir := range scaleWindowDirs {
				e1, x1 := fieldFusedCase(deg, dir, ratio, 1)
				phi1 := e1.EvaluatePrefix(x1, deg, nil)
				fphi1, g1 := e1.EvaluateFieldBuf(x1, deg, nil)
				for k := -30; k <= 30; k++ {
					s := math.Pow(10, float64(k))
					e, x := fieldFusedCase(deg, dir, ratio, s)
					cases++
					where := fmt.Sprintf("degree %d a/r %v dir %v scale %v", deg, ratio, dir, s)
					tol := 1e-12 * e.AbsCharge / (x.Dist(e.Center) - e.Radius)
					want := phi1 / s
					if d := math.Abs(evaluateFusedRef(e, x, deg) - want); d <= tol {
						refOK++
						got := e.EvaluateFused(x, deg)
						if d := math.Abs(got - want); !(d <= tol) {
							t.Errorf("%s: EvaluateFused %v, scaled truth %v (diff %g > %g); the replaced kernel was within", where, got, want, d, tol)
						}
					}
					if d := math.Abs(e.EvaluateFused(x, deg) - want); d <= tol {
						newOK++
					}
					wantPhi, wantG := fphi1/s, g1.Scale(1/(s*s))
					refPhi, refG := evaluateFieldFusedRef(e, x, deg)
					if fieldMismatch(e, x, refPhi, refG, wantPhi, wantG) == "" {
						refFieldOK++
						phi, g := e.EvaluateFieldFused(x, deg)
						if msg := fieldMismatch(e, x, phi, g, wantPhi, wantG); msg != "" {
							t.Errorf("%s: EvaluateFieldFused against the scaled truth: %s; the replaced kernel was within", where, msg)
						}
					}
					if phi, g := e.EvaluateFieldFused(x, deg); fieldMismatch(e, x, phi, g, wantPhi, wantG) == "" {
						newFieldOK++
					}
				}
			}
		}
	}
	t.Logf("%d cases: potential accurate in %d (replaced kernel %d), field in %d (replaced kernel %d)", cases, newOK, refOK, newFieldOK, refFieldOK)
}

// TestFusedAVX2Bitwise: the dispatched fused kernels (the AVX2 assembly
// where the CPU has it) return bitwise their Go bodies' results, two NaNs
// counting as equal. The cases are TestFusedScaleWindow's 22,692 (degrees
// 0-30, a/r 0.01-0.99, targets on +z, -z, x and a generic direction,
// lengths 1e-30 to 1e30) at prefix degrees -1, 0, deg/2, deg-1, deg and
// deg+1; targets at the center (rho = 0) and exactly on the z axis; zero
// and negative-zero coefficients, whose sums must keep their signs; and
// unstructured coefficients, complex in column 0 too.
func TestFusedAVX2Bitwise(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this CPU: the dispatched kernels are the Go bodies")
	}
	check := func(where string, e *Expansion, x vec.V3, ps ...int) {
		t.Helper()
		for _, p := range ps {
			if msg := bodiesMismatch(e, x, p); msg != "" {
				t.Fatalf("%s prefix %d: %s", where, p, msg)
			}
		}
	}
	cases := 0
	for deg := 0; deg <= 30; deg++ {
		ps := []int{-1, 0, deg / 2, deg - 1, deg, deg + 1}
		for _, ratio := range scaleWindowRatios {
			for _, dir := range scaleWindowDirs {
				for k := -30; k <= 30; k++ {
					e, x := fieldFusedCase(deg, dir, ratio, math.Pow(10, float64(k)))
					check(fmt.Sprintf("degree %d a/r %v dir %v scale 1e%d", deg, ratio, dir, k), e, x, ps...)
					cases++
				}
				e, _ := fieldFusedCase(deg, dir, ratio, 1)
				check(fmt.Sprintf("degree %d a/r %v at the center", deg, ratio), e, e.Center, ps...)
			}
		}
		rng := rand.New(rand.NewSource(int64(deg)))
		center := vec.V3{X: 0.25, Y: -0.5, Z: 0.125}
		for _, z := range []float64{3, -3, 1e-3, -1e3} {
			for _, sign := range []float64{1, -1} {
				zero := NewExpansion(center, deg)
				for i := range zero.Coeff {
					zero.Coeff[i] = complex(math.Copysign(0, sign), math.Copysign(0, sign))
				}
				check(fmt.Sprintf("degree %d zero coefficients (sign %v) on the z axis at %v", deg, sign, z), zero, center.Add(vec.V3{Z: z}), ps...)
				check(fmt.Sprintf("degree %d zero coefficients (sign %v) off the axis", deg, sign), zero, center.Add(vec.V3{X: z, Y: 1, Z: -2}), ps...)
			}
			e := NewExpansion(center, deg)
			for i := range e.Coeff {
				e.Coeff[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			x := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(math.Abs(z))
			check(fmt.Sprintf("degree %d unstructured coefficients at %v", deg, x), e, center.Add(x), ps...)
			check(fmt.Sprintf("degree %d unstructured coefficients on the z axis at %v", deg, z), e, center.Add(vec.V3{Z: z}), ps...)
		}
	}
	if cases != 22692 {
		t.Fatalf("ran %d scale-window cases, want 22692", cases)
	}
}

// TestEvaluateNegativeDegree: a negative prefix degree is the empty series
// at all four M2P entry points, a potential of 0 and a zero gradient.
func TestEvaluateNegativeDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pos, q := randomCluster(rng, 20, vec.V3{}, 0.5)
	e := P2M(pos, q, vec.V3{}, 3)
	x := vec.V3{X: 1.5, Y: -1, Z: 2}
	for _, tc := range []struct {
		name string
		eval func(p int) (float64, vec.V3)
	}{
		{"EvaluatePrefix", func(p int) (float64, vec.V3) { return e.EvaluatePrefix(x, p, nil), vec.V3{} }},
		{"EvaluateFieldBuf", func(p int) (float64, vec.V3) { return e.EvaluateFieldBuf(x, p, nil) }},
		{"EvaluateFused", func(p int) (float64, vec.V3) { return e.EvaluateFused(x, p), vec.V3{} }},
		{"EvaluateFieldFused", func(p int) (float64, vec.V3) { return e.EvaluateFieldFused(x, p) }},
	} {
		for _, p := range []int{-1, -3} {
			if phi, g := tc.eval(p); math.Float64bits(phi) != 0 || g != (vec.V3{}) {
				t.Errorf("%s at p = %d: %v %v, want 0 and a zero gradient", tc.name, p, phi, g)
			}
		}
	}
}

// TestFusedShortCoeffPanics: an expansion whose Coeff is shorter than its
// Degree implies makes both fused kernels panic with an index error, on
// the dispatched body and on the Go body, even when the slice's capacity
// would cover the read: the assembly must never read past len(Coeff).
func TestFusedShortCoeffPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pos, q := randomCluster(rng, 20, vec.V3{}, 0.5)
	src := P2M(pos, q, vec.V3{}, 3)
	e := *src
	e.Degree = 4
	e.Coeff = append(make([]complex128, 0, harmonics.Len(8)), src.Coeff...)
	x := vec.V3{X: 1.5, Y: -1, Z: 2}
	for _, tc := range []struct {
		name string
		eval func()
	}{
		{"EvaluateFused", func() { e.EvaluateFused(x, 4) }},
		{"EvaluateFused Go body", func() { e.evaluateFused(x, 4, false) }},
		{"EvaluateFieldFused", func() { e.EvaluateFieldFused(x, 4) }},
		{"EvaluateFieldFused Go body", func() { e.evaluateFieldFused(x, 4, false) }},
	} {
		func() {
			defer func() {
				err, ok := recover().(runtime.Error)
				if !ok || !strings.Contains(err.Error(), "index out of range") {
					t.Errorf("%s on a short Coeff: recovered %v, want an index-out-of-range runtime error", tc.name, err)
				}
			}()
			tc.eval()
		}()
	}
}
