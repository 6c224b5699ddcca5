package rotation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"treecode/internal/harmonics"
	"treecode/internal/legendre"
	"treecode/internal/vec"
)

func ry(v vec.V3, b float64) vec.V3 {
	s, c := math.Sin(b), math.Cos(b)
	return vec.V3{X: v.X*c + v.Z*s, Y: v.Y, Z: -v.X*s + v.Z*c}
}

func rz(v vec.V3, b float64) vec.V3 {
	s, c := math.Sin(b), math.Cos(b)
	return vec.V3{X: v.X*c - v.Y*s, Y: v.X*s + v.Y*c, Z: v.Z}
}

func randPoints(rng *rand.Rand, n int) ([]vec.V3, []float64) {
	pts := make([]vec.V3, n)
	q := make([]float64, n)
	for i := range pts {
		pts[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		q[i] = rng.NormFloat64()
	}
	return pts, q
}

// buildM computes M_n^m = sum q conj(R_n^m(y)).
func buildM(pts []vec.V3, q []float64, p int) []complex128 {
	out := make([]complex128, harmonics.Len(p))
	for i, y := range pts {
		r := harmonics.Regular(nil, y, p)
		for k, c := range r {
			out[k] += complex(q[i], 0) * complex(real(c), -imag(c))
		}
	}
	return out
}

// buildL computes L_j^k = sum q S_j^k(u) for far points u.
func buildL(pts []vec.V3, q []float64, p int) []complex128 {
	out := make([]complex128, harmonics.Len(p))
	for i, u := range pts {
		s := harmonics.Irregular(nil, u, p)
		for k, c := range s {
			out[k] += complex(q[i], 0) * c
		}
	}
	return out
}

func coeffDist(a, b []complex128) float64 {
	var e, n float64
	for k := range a {
		d := a[k] - b[k]
		e += real(d)*real(d) + imag(d)*imag(d)
		n += real(b[k])*real(b[k]) + imag(b[k])*imag(b[k])
	}
	return math.Sqrt(e / (1 + n))
}

// deltaAt returns Delta^n_{k,m} for any -n <= k, m <= n from t's quadrant.
func (t *table) deltaAt(n, k, m int) float64 {
	s := 1.0
	if k < 0 {
		k = -k
		if (n+m)&1 != 0 {
			s = -s
		}
	}
	if m < 0 {
		m = -m
		if (n+k)&1 != 0 {
			s = -s
		}
	}
	return s * t.delta[k*(n+1)+m]
}

// smallD returns the Wigner small-d matrix d^n(beta) as a dense
// (2n+1)x(2n+1) slice indexed [m+n][mp+n], through the factorization
//
//	d^n_{m,mp}(beta) = sum_k Delta^n_{k,m} Delta^n_{k,mp} cos((m-mp)pi/2 - k beta),
//
// the real form of i^{m-mp} sum_k Delta_{k,m} e^{-ik beta} Delta_{k,mp}.
// It is the dense reference of these tests; RotateY applies the same
// factorization folded. With Delta exact, entries are accurate to a few
// ulps at every degree (TestSmallDOrthogonal checks orthogonality to
// 1e-14 up to degree 30). With this sign convention, the matrix that maps
// coefficients of sources y to coefficients of sources Ry(beta)y is the
// one evaluated at -beta.
func smallD(n int, beta float64) [][]float64 {
	t := tablesTo(n)[n]
	size := 2*n + 1
	sn, cs := make([]float64, size), make([]float64, size)
	for k := -n; k <= n; k++ {
		sn[k+n], cs[k+n] = math.Sincos(float64(k) * beta)
	}
	d := make([][]float64, size)
	for m := -n; m <= n; m++ {
		d[m+n] = make([]float64, size)
		for mp := -n; mp <= n; mp++ {
			// cos(q pi/2 - x) is (-1)^{q/2} cos x for even q and
			// (-1)^{(q-1)/2} sin x for odd q.
			q := m - mp
			trig, sign := cs, 1.0
			if q&1 != 0 {
				trig = sn
				q--
			}
			if (q/2)&1 != 0 {
				sign = -1
			}
			var sum float64
			for k := -n; k <= n; k++ {
				sum += t.deltaAt(n, k, m) * t.deltaAt(n, k, mp) * trig[k+n]
			}
			d[m+n][mp+n] = sign * sum
		}
	}
	return d
}

func TestSmallDIdentityAtZero(t *testing.T) {
	for n := 0; n <= 10; n++ {
		d := smallD(n, 0)
		for i := range d {
			for j := range d[i] {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(d[i][j]-want) > 1e-13 {
					t.Fatalf("d^%d(0)[%d][%d] = %v", n, i, j, d[i][j])
				}
			}
		}
	}
}

// TestSmallDOrthogonal: d^n(beta) is orthogonal to 1e-14 at every degree
// up to legendre.MaxAccurateDegree, at beta = pi/2 (Delta itself) and at a
// random angle per degree.
func TestSmallDOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= legendre.MaxAccurateDegree; n++ {
		for _, beta := range []float64{math.Pi / 2, rng.Float64() * math.Pi} {
			d := smallD(n, beta)
			size := 2*n + 1
			for i := 0; i < size; i++ {
				for j := 0; j < size; j++ {
					var dot float64
					for k := 0; k < size; k++ {
						dot += d[i][k] * d[j][k]
					}
					want := 0.0
					if i == j {
						want = 1
					}
					if math.Abs(dot-want) > 1e-14 {
						t.Fatalf("n=%d beta=%v: row orthogonality (%d,%d) = %v", n, beta, i, j, dot)
					}
				}
			}
		}
	}
}

// TestSmallDComposition: d(b1) d(b2) = d(b1+b2) to 1e-14 up to degree 30.
func TestSmallDComposition(t *testing.T) {
	b1, b2 := 0.4, 0.9
	for n := 0; n <= legendre.MaxAccurateDegree; n++ {
		d1 := smallD(n, b1)
		d2 := smallD(n, b2)
		d12 := smallD(n, b1+b2)
		size := 2*n + 1
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				var s float64
				for k := 0; k < size; k++ {
					s += d1[i][k] * d2[k][j]
				}
				if math.Abs(s-d12[i][j]) > 1e-14 {
					t.Fatalf("n=%d: composition failed at (%d,%d): %v vs %v", n, i, j, s, d12[i][j])
				}
			}
		}
	}
}

// TestDeltaSymmetries evaluates every entry of Delta^n = d^n(pi/2) exactly,
// not only the quadrant the tables keep, and checks the symmetries
// RotateY folds by, to the bit, up to degree 30:
// Delta_{k,-m} = (-1)^{n+k} Delta_{k,m}, Delta_{-k,m} = (-1)^{n+m}
// Delta_{k,m} and Delta_{m,k} = (-1)^{m+k} Delta_{k,m}.
func TestDeltaSymmetries(t *testing.T) {
	sign := func(e int) float64 { return 1 - 2*float64(e&1) }
	for n := 0; n <= legendre.MaxAccurateDegree; n++ {
		full := newExact(n).delta
		tab := tablesTo(n)[n]
		for k := -n; k <= n; k++ {
			for m := -n; m <= n; m++ {
				d := full(k, m)
				if got := tab.deltaAt(n, k, m); got != d {
					t.Fatalf("n=%d: quadrant symmetry gives Delta_{%d,%d} = %v, exact %v", n, k, m, got, d)
				}
				if g := sign(n+k) * d; full(k, -m) != g {
					t.Fatalf("n=%d: Delta_{%d,%d} = %v, (-1)^{n+k} Delta_{%d,%d} = %v", n, k, -m, full(k, -m), k, m, g)
				}
				if g := sign(n+m) * d; full(-k, m) != g {
					t.Fatalf("n=%d: Delta_{%d,%d} = %v, (-1)^{n+m} Delta_{%d,%d} = %v", n, -k, m, full(-k, m), k, m, g)
				}
				if g := sign(m+k) * d; full(m, k) != g {
					t.Fatalf("n=%d: Delta_{%d,%d} = %v, (-1)^{m+k} Delta_{%d,%d} = %v", n, m, k, full(m, k), k, m, g)
				}
			}
		}
	}
}

// TestDeltaExactValues pins closed forms: Delta^1 = d^1(pi/2) has entries
// 0, 1/2 and +-1/sqrt2, every one correctly rounded in the table (smallD
// recombines them with cos(k pi/2) and sin(k pi/2) to within a few ulps),
// and the corner Delta^n_{n,n} = 2^{-n} is a power of two at every degree.
func TestDeltaExactValues(t *testing.T) {
	d := smallD(1, math.Pi/2)
	r := math.Sqrt2 / 2
	want := [3][3]float64{{0.5, r, 0.5}, {r, 0, r}, {0.5, r, 0.5}} // magnitudes
	tab := tablesTo(1)[1]
	for i := range want {
		for j := range want[i] {
			if math.Abs(math.Abs(d[i][j])-want[i][j]) > 4e-16 {
				t.Errorf("d^1(pi/2)[%d][%d] = %v, want +-%v", i, j, d[i][j], want[i][j])
			}
			if got := math.Abs(tab.deltaAt(1, i-1, j-1)); got != want[i][j] {
				t.Errorf("|Delta^1_{%d,%d}| = %v, want %v", i-1, j-1, got, want[i][j])
			}
		}
	}
	for n := 0; n <= legendre.MaxAccurateDegree; n++ {
		if got := tablesTo(n)[n].delta[n*(n+1)+n]; got != math.Ldexp(1, -n) {
			t.Errorf("Delta^%d_{%d,%d} = %v, want 2^-%d", n, n, n, got, n)
		}
	}
}

func TestSmallDDegreeOne(t *testing.T) {
	// Degree-1 closed form (rows/cols ordered m = -1, 0, 1): the matrix is
	// orthogonal with d[0+1][0+1] = cos(beta) and corner entries
	// (1 +- cos)/2 up to the convention's signs. Check the entries that are
	// convention-independent.
	beta := 0.6
	d := smallD(1, beta)
	if math.Abs(d[1][1]-math.Cos(beta)) > 1e-14 {
		t.Errorf("d^1_{00} = %v, want cos(beta)", d[1][1])
	}
	if math.Abs(d[2][2]-(1+math.Cos(beta))/2) > 1e-14 {
		t.Errorf("d^1_{11} = %v, want (1+cos)/2", d[2][2])
	}
	if math.Abs(d[2][0]-(1-math.Cos(beta))/2) > 1e-14 {
		t.Errorf("d^1_{1,-1} = %v, want (1-cos)/2", d[2][0])
	}
	if math.Abs(math.Abs(d[2][1])-math.Sin(beta)/math.Sqrt2) > 1e-14 {
		t.Errorf("|d^1_{10}| = %v, want sin/sqrt2", math.Abs(d[2][1]))
	}
}

func TestRotateYMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const p = 10
	for trial := 0; trial < 10; trial++ {
		beta := (rng.Float64()*2 - 1) * math.Pi
		pts, q := randPoints(rng, 25)
		pl := NewPlan(p, beta)

		// Multipole kind.
		m := buildM(pts, q, p)
		rpts := make([]vec.V3, len(pts))
		for i := range pts {
			rpts[i] = ry(pts[i], beta)
		}
		want := buildM(rpts, q, p)
		got := append([]complex128(nil), m...)
		pl.RotateY(got, p, Multipole, false)
		if d := coeffDist(got, want); d > 1e-11 {
			t.Fatalf("Multipole RotateY mismatch: %v (beta=%v)", d, beta)
		}
		// Inverse undoes it.
		pl.RotateY(got, p, Multipole, true)
		if d := coeffDist(got, m); d > 1e-11 {
			t.Fatalf("Multipole RotateY inverse mismatch: %v", d)
		}

		// Local kind (points pushed away from the center).
		far := make([]vec.V3, len(pts))
		rfar := make([]vec.V3, len(pts))
		for i := range pts {
			far[i] = pts[i].Add(vec.V3{X: 6, Y: -4, Z: 5})
			rfar[i] = ry(far[i], beta)
		}
		l := buildL(far, q, p)
		wantL := buildL(rfar, q, p)
		gotL := append([]complex128(nil), l...)
		pl.RotateY(gotL, p, Local, false)
		if d := coeffDist(gotL, wantL); d > 1e-11 {
			t.Fatalf("Local RotateY mismatch: %v", d)
		}
	}
}

// TestRotateYMatchesDense: the folded RotateY is the dense product
// D_out d^n(-beta) D_in of smallD with the kind's N-scalings, row by row up
// to degree 30, for both kinds and angles on and off the axes. Rows are
// compared in Schmidt normalization (multipole rows times N, local rows
// divided by N), where the rotation is orthogonal, to 1e-14 of the row's
// norm.
func TestRotateYMatchesDense(t *testing.T) {
	const p = legendre.MaxAccurateDegree
	rng := rand.New(rand.NewSource(7))
	norm := func(n, m int) float64 {
		t := tablesTo(n)[n]
		return t.norm[abs(m)]
	}
	tmp := make([]complex128, 2*(p+1))
	for _, beta := range []float64{0, math.Pi / 2, -math.Pi, 0.3, -2.1} {
		for _, kind := range []Kind{Multipole, Local} {
			// Schmidt-normalized rows of unit scale.
			c := make([]complex128, harmonics.Len(p))
			for n := 0; n <= p; n++ {
				for m := 0; m <= n; m++ {
					v := complex(rng.NormFloat64(), rng.NormFloat64())
					if m == 0 {
						v = complex(real(v), 0)
					}
					if kind == Multipole {
						v /= complex(norm(n, m), 0)
					} else {
						v *= complex(norm(n, m), 0)
					}
					c[harmonics.Idx(n, m)] = v
				}
			}
			got := append([]complex128(nil), c...)
			RotateY(got, p, kind, math.Cos(beta), math.Sin(beta), tmp)
			for n := 0; n <= p; n++ {
				d := smallD(n, -beta)
				schmidt := func(v complex128, m int) complex128 {
					if kind == Multipole {
						return v * complex(norm(n, m), 0)
					}
					return v / complex(norm(n, m), 0)
				}
				var rowNorm, errNorm float64
				for m := 0; m <= n; m++ {
					var want complex128
					for mp := -n; mp <= n; mp++ {
						want += complex(d[m+n][mp+n], 0) * schmidt(harmonics.Get(c, p, n, mp), mp)
					}
					diff := schmidt(got[harmonics.Idx(n, m)], m) - want
					errNorm += real(diff)*real(diff) + imag(diff)*imag(diff)
					rowNorm += real(want)*real(want) + imag(want)*imag(want)
				}
				if math.Sqrt(errNorm) > 1e-14*math.Sqrt(rowNorm) {
					t.Fatalf("kind %d beta %v degree %d: folded rotation differs from the dense one by %g of the row norm",
						kind, beta, n, math.Sqrt(errNorm/rowNorm))
				}
			}
		}
	}
}

// TestRotateYAllocatesNothing pins RotateY at zero allocations once the
// tables reach the degree, at degree 20 and at 64, one above planStack,
// and a Plan's RotateY at zero up to planStack.
func TestRotateYAllocatesNothing(t *testing.T) {
	for _, p := range []int{20, planStack, planStack + 1} {
		c := make([]complex128, harmonics.Len(p))
		for i := range c {
			c[i] = complex(float64(i), -0.5)
		}
		tmp := make([]complex128, 2*(p+1))
		pl := NewPlan(p, 0.7)
		funcs := map[string]func(){"RotateY": func() { RotateY(c, p, Local, 0.6, 0.8, tmp) }}
		if p <= planStack {
			funcs["Plan.RotateY"] = func() { pl.RotateY(c, p, Multipole, true) }
		}
		for name, f := range funcs {
			if a := testing.AllocsPerRun(20, f); a != 0 {
				t.Errorf("%s at p=%d allocates %v times per call", name, p, a)
			}
		}
	}
}

// TestTablesGrowConcurrently: goroutines that ask for the tables at
// different degrees at once, as the FMM's M2L workers do, all see one
// immutable table per degree, equal to a fresh computation. The degrees
// run past every other test's, so the first run of this test grows the
// tables here under -race.
func TestTablesGrowConcurrently(t *testing.T) {
	const top = legendre.MaxAccurateDegree + 6
	const workers = 8
	seen := make([][]*table, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := make([]complex128, harmonics.Len(top))
			tmp := make([]complex128, 2*(top+1))
			for p := top - w; p >= 0; p -= 3 {
				RotateY(c, p, Local, 0.6, 0.8, tmp)
			}
			seen[w] = tablesTo(top)
		}(w)
	}
	wg.Wait()
	for n := 0; n <= top; n++ {
		want := newTable(n)
		for w := range seen {
			got := seen[w][n]
			if got != seen[0][n] {
				t.Fatalf("degree %d: goroutines %d and 0 see different tables", n, w)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("degree %d: shared table differs from a fresh computation", n)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestRotateZMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const p = 8
	psi := 1.234
	pts, q := randPoints(rng, 20)
	m := buildM(pts, q, p)
	rpts := make([]vec.V3, len(pts))
	for i := range pts {
		rpts[i] = rz(pts[i], psi)
	}
	want := buildM(rpts, q, p)
	got := append([]complex128(nil), m...)
	RotateZ(got, p, psi, Multipole)
	if d := coeffDist(got, want); d > 1e-12 {
		t.Fatalf("Multipole RotateZ mismatch: %v", d)
	}

	far := make([]vec.V3, len(pts))
	rfar := make([]vec.V3, len(pts))
	for i := range pts {
		far[i] = pts[i].Add(vec.V3{X: 5, Y: 5, Z: 5})
		rfar[i] = rz(far[i], psi)
	}
	l := buildL(far, q, p)
	wantL := buildL(rfar, q, p)
	gotL := append([]complex128(nil), l...)
	RotateZ(gotL, p, psi, Local)
	if d := coeffDist(gotL, wantL); d > 1e-12 {
		t.Fatalf("Local RotateZ mismatch: %v", d)
	}
}

func TestAxialM2MMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const p = 9
	pts, q := randPoints(rng, 20)
	m := buildM(pts, q, p)
	shift := 1.7
	shifted := make([]vec.V3, len(pts))
	for i := range pts {
		shifted[i] = pts[i].Add(vec.V3{Z: shift})
	}
	want := buildM(shifted, q, p)
	got := make([]complex128, harmonics.Len(p))
	AxialM2M(got, p, m, p, shift)
	if d := coeffDist(got, want); d > 1e-11 {
		t.Fatalf("AxialM2M mismatch: %v", d)
	}
}

func TestAxialL2LMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const p = 9
	pts, q := randPoints(rng, 20)
	far := make([]vec.V3, len(pts))
	for i := range pts {
		far[i] = pts[i].Add(vec.V3{X: 8, Y: 2, Z: 3})
	}
	l := buildL(far, q, p)
	// New center at w*zhat: far points relative to it are far - w*zhat.
	w := 0.4
	shifted := make([]vec.V3, len(pts))
	for i := range pts {
		shifted[i] = far[i].Sub(vec.V3{Z: w})
	}
	wantFull := buildL(shifted, q, p)
	got := make([]complex128, harmonics.Len(p))
	AxialL2L(got, p, l, p, w)
	// L2L of a TRUNCATED series: compare against the exact rebuild only in
	// the well-converged low degrees; high degrees differ by truncation.
	const pCheck = 4
	var e, nrm float64
	for n := 0; n <= pCheck; n++ {
		for m := 0; m <= n; m++ {
			d := got[harmonics.Idx(n, m)] - wantFull[harmonics.Idx(n, m)]
			e += real(d)*real(d) + imag(d)*imag(d)
			c := wantFull[harmonics.Idx(n, m)]
			nrm += real(c)*real(c) + imag(c)*imag(c)
		}
	}
	if math.Sqrt(e/(1+nrm)) > 1e-4 {
		t.Fatalf("AxialL2L low-degree mismatch: %v", math.Sqrt(e/(1+nrm)))
	}
}

func TestAngles(t *testing.T) {
	r, th, ph := Angles(vec.V3{Z: 2})
	if r != 2 || th != 0 || ph != 0 {
		t.Errorf("Angles(z) = %v %v %v", r, th, ph)
	}
}

// BenchmarkRotateY times one rotation of degree-p multipole coefficients
// at the benchmark's probe degrees, with the tables already grown.
func BenchmarkRotateY(b *testing.B) {
	for _, p := range []int{4, 8, 13} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			c := make([]complex128, harmonics.Len(p))
			for i := range c {
				c[i] = complex(float64(i), -0.5)
			}
			tmp := make([]complex128, 2*(p+1))
			s, cb := math.Sincos(0.7)
			RotateY(c, p, Multipole, cb, s, tmp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				RotateY(c, p, Multipole, cb, s, tmp)
			}
		})
	}
}
