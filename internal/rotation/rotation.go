// Package rotation implements rotations of solid-harmonic expansions and
// the rotation-accelerated ("point-and-shoot") translation operators: a
// translation along an arbitrary vector t is performed as
//
//	rotate (align t with +z)  ->  axial shift  ->  rotate back,
//
// reducing the O(p^4) coefficient convolutions of M2M/M2L/L2L to O(p^3):
// the axial shift couples only equal orders m because solid harmonics of a
// z-aligned argument vanish for m != 0:
//
//	R_j^k(t zhat) = delta_{k0} t^j/j!,   S_j^k(t zhat) = delta_{k0} j!/t^{j+1}.
//
// Our regular solid harmonics are Schmidt harmonics scaled by
// 1/N_n^m with N_n^m = sqrt((n-m)!(n+m)!) (and the irregular ones by
// N_n^m), and Schmidt harmonics rotate with the same Wigner-d matrices as
// orthonormal spherical harmonics; the rotation in our basis is therefore
// d^n(beta) between diagonal N-scalings whose direction depends on the
// coefficient kind. Multipole coefficients (sums of conj(R)) and local
// coefficients (sums of S) also pick up opposite phases under z-rotations,
// so every entry point takes the coefficient Kind.
//
// Every y-rotation factors through one constant matrix per degree,
// Delta^n = d^n(pi/2):
//
//	d^n_{m,m'}(beta) = i^{m-m'} sum_k Delta^n_{k,m} e^{-ik beta} Delta^n_{k,m'},
//
// so no matrix depends on the angle and no per-angle plan is needed.
// RotateY applies the factorization in real arithmetic on one quadrant of
// Delta (DESIGN §16); it is the rotation of multipole's M2L, the M2L of
// every FMM interaction list. Delta is computed exactly in math/big, once
// per degree, the first time a rotation of that degree runs.
package rotation

import (
	"math"
	"math/big"
	"sync"
	"sync/atomic"

	"treecode/internal/harmonics"
	"treecode/internal/vec"
)

// Kind distinguishes the two coefficient types of the library.
type Kind int

const (
	// Multipole coefficients: M_n^m = sum_i q_i conj(R_n^m(y_i)).
	Multipole Kind = iota
	// Local coefficients: L_j^k = sum_i q_i S_j^k(u_i).
	Local
)

// table holds the constants of the degree-n y-rotation.
type table struct {
	// delta is the quadrant Delta^n_{k,m}, 0 <= k, m <= n, row k at
	// [k*(n+1), (k+1)*(n+1)). The other three quadrants follow from
	//
	//	Delta_{k,-m} = (-1)^{n+k} Delta_{k,m},
	//	Delta_{-k,m} = (-1)^{n+m} Delta_{k,m},
	//
	// and the quadrant itself has Delta_{m,k} = (-1)^{m+k} Delta_{k,m}.
	delta []float64
	// norm is N_n^m = sqrt((n-m)!(n+m)!) and inv its reciprocal, 0 <= m <= n.
	norm, inv []float64
}

// tables holds the rotation tables of degrees 0..len-1. It only grows, and
// each published slice is immutable, so readers need no lock.
var (
	tables   atomic.Pointer[[]*table]
	tablesMu sync.Mutex // serializes growth
)

// tablesTo returns the rotation tables of degrees 0..p (at least),
// computing the missing degrees once.
func tablesTo(p int) []*table {
	if t := tables.Load(); t != nil && len(*t) > p {
		return *t
	}
	return growTables(p)
}

func growTables(p int) []*table {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	var cur []*table
	if t := tables.Load(); t != nil {
		cur = *t
	}
	if len(cur) > p {
		return cur
	}
	next := make([]*table, p+1)
	copy(next, cur)
	for n := len(cur); n <= p; n++ {
		next[n] = newTable(n)
	}
	tables.Store(&next)
	return next
}

// exactPrec is the math/big precision of the table entries before their
// one rounding to float64.
const exactPrec = 256

// newTable computes the degree-n constants, each rounded to float64 once.
func newTable(n int) *table {
	x := newExact(n)
	w := n + 1
	t := &table{delta: make([]float64, w*w), norm: make([]float64, w), inv: make([]float64, w)}
	for k := 0; k <= n; k++ {
		for m := 0; m <= n; m++ {
			t.delta[k*w+m] = x.delta(k, m)
		}
	}
	one := new(big.Float).SetInt64(1)
	for m := 0; m <= n; m++ {
		nm := sqrtRatio(new(big.Int).Mul(x.fact[n-m], x.fact[n+m]), x.fact[0])
		t.norm[m], _ = nm.Float64()
		t.inv[m], _ = new(big.Float).SetPrec(exactPrec).Quo(one, nm).Float64()
	}
	return t
}

// exact holds the integers of the degree-n constants.
type exact struct {
	n     int
	binom [][]*big.Int // C(a, b) for 0 <= b <= a <= 2n
	fact  []*big.Int   // a! for 0 <= a <= 2n
}

func newExact(n int) *exact {
	x := &exact{n: n, binom: make([][]*big.Int, 2*n+1), fact: make([]*big.Int, 2*n+1)}
	for a := range x.binom {
		row := make([]*big.Int, a+1)
		row[0], row[a] = big.NewInt(1), big.NewInt(1)
		for b := 1; b < a; b++ {
			row[b] = new(big.Int).Add(x.binom[a-1][b-1], x.binom[a-1][b])
		}
		x.binom[a] = row
		x.fact[a] = big.NewInt(1)
		if a > 0 {
			x.fact[a].Mul(x.fact[a-1], big.NewInt(int64(a)))
		}
	}
	return x
}

// delta returns Delta^n_{k,m} = d^n_{k,m}(pi/2) for -n <= k, m <= n,
// correctly rounded. At beta = pi/2, cos(beta/2) = sin(beta/2) = 1/sqrt2,
// and Wigner's sum becomes
//
//	Delta^n_{k,m} = 2^{-n} I_{k,m} sqrt((n+m)!(n-m)! / ((n+k)!(n-k)!)),
//	I_{k,m} = sum_j (-1)^{m-k+j} C(n+k, j) C(n-k, n-m-j),
//
// an integer times the square root of a rational, both evaluated exactly
// (the square root to exactPrec bits).
func (x *exact) delta(k, m int) float64 {
	n := x.n
	sum := new(big.Int)
	term := new(big.Int)
	for j := max(0, k-m); j <= min(n+k, n-m); j++ {
		term.Mul(x.binom[n+k][j], x.binom[n-k][n-m-j])
		if (m-k+j)&1 != 0 {
			sum.Sub(sum, term)
		} else {
			sum.Add(sum, term)
		}
	}
	v := sqrtRatio(new(big.Int).Mul(x.fact[n+m], x.fact[n-m]), new(big.Int).Mul(x.fact[n+k], x.fact[n-k]))
	v.Mul(v, new(big.Float).SetInt(sum))
	v.SetMantExp(v, -n)
	f, _ := v.Float64()
	return f
}

// sqrtRatio returns sqrt(num/den) to exactPrec bits.
func sqrtRatio(num, den *big.Int) *big.Float {
	q := new(big.Float).SetPrec(exactPrec).Quo(new(big.Float).SetInt(num), new(big.Float).SetInt(den))
	return q.Sqrt(q)
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

// SmallD returns the Wigner small-d matrix d^n(beta) as a dense
// (2n+1)x(2n+1) slice indexed [m+n][mp+n], through the factorization
//
//	d^n_{m,mp}(beta) = sum_k Delta^n_{k,m} Delta^n_{k,mp} cos((m-mp)pi/2 - k beta),
//
// the real form of i^{m-mp} sum_k Delta_{k,m} e^{-ik beta} Delta_{k,mp}.
// With Delta exact, entries are accurate to a few ulps at every degree
// (rotation_test.go checks orthogonality to 1e-14 up to degree 30). With
// this sign convention, the matrix that maps coefficients of sources y to
// coefficients of sources Ry(beta)y is the one evaluated at -beta.
func SmallD(n int, beta float64) [][]float64 {
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

// RotateY transforms coefficients c (triangular storage, degree p) in
// place so that they describe the same field built from source points
// rotated by Ry(beta), given as cosb = cos(beta) and sinb = sin(beta).
// tmp is scratch of length >= p+1. It allocates nothing once the tables
// reach degree p.
//
// Row n is the product D_out d^n(-beta) D_in with the N-scalings of kind
// (D_in = N, D_out = 1/N for Multipole; the reverse for Local), and
// d^n(-beta) = i^{m-m'} Delta^T diag(e^{ik beta}) Delta. Each of the two
// dense products runs on Delta's (n+1)x(n+1) quadrant in real arithmetic,
// folded by three symmetries: Delta_{k,-m} = (-1)^{n+k} Delta_{k,m} with
// c_{-m} = (-1)^m conj(c_m) pairs the orders +-m' of the input into the
// real part (n+k even) or the imaginary part (n+k odd) of each c_{m'};
// Delta_{-k,m} = (-1)^{n+m} Delta_{k,m} pairs +-k into cos(k beta) and
// sin(k beta) combinations; and Delta_{m,k} = (-1)^{m+k} Delta_{k,m} lets
// the second product read Delta by rows. Each (k, m') and each (m, k)
// pair is one real multiply-add: 2(n+1)^2 per degree, against (2n+1)^2
// complex ones for the dense matrix.
//
//treecode:hot
func RotateY(c []complex128, p int, kind Kind, cosb, sinb float64, tmp []complex128) {
	tabs := tablesTo(p)
	for n := 1; n <= p; n++ {
		t := tabs[n]
		w := n + 1
		in, out := t.norm, t.inv
		if kind == Local {
			in, out = out, in
		}
		in, out = in[:w], out[:w]
		row := c[n*w/2:][:w]
		h := tmp[:w]

		// x_m = w_m (-1)^{floor(m/2)} D_in c_m, with w_0 = 1 and w_m = 2
		// counting the order -m.
		for m := range row {
			s := 2 * in[m]
			if m == 0 {
				s = in[0]
			}
			if m&2 != 0 {
				s = -s
			}
			row[m] = complex(s*real(row[m]), s*imag(row[m]))
		}

		// First product and the phase: e_k and o_k sum the even and odd
		// orders of x against row k of Delta; cos(k beta) and sin(k beta)
		// combine them into f_k and g_k, weighted w_k (-1)^k for the
		// second product.
		ck, sk := 1.0, 0.0
		for k := 0; k < w; k++ {
			d := t.delta[k*w:][:w]
			var e, o float64
			if (n+k)&1 == 0 {
				for m := 0; m < n; m += 2 {
					e += d[m] * real(row[m])
					o += d[m+1] * real(row[m+1])
				}
				if n&1 == 0 {
					e += d[n] * real(row[n])
				}
			} else {
				for m := 0; m < n; m += 2 {
					e += d[m] * imag(row[m])
					o += d[m+1] * imag(row[m+1])
				}
				if n&1 == 0 {
					e += d[n] * imag(row[n])
				}
			}
			s := 2.0
			if k == 0 {
				s = 1
			}
			if k&1 != 0 {
				s = -s
			}
			h[k] = complex(s*(ck*e+sk*o), s*(ck*o-sk*e))
			ck, sk = ck*cosb-sk*sinb, sk*cosb+ck*sinb
		}

		// Second product: output order m reads f (m even) or g (m odd);
		// the k with n+k even give its real part, the others its
		// imaginary part.
		for m := 0; m < w; m++ {
			d := t.delta[m*w:][:w]
			var a0, a1 float64 // even and odd k
			if m&1 == 0 {
				for k := 0; k < n; k += 2 {
					a0 += d[k] * real(h[k])
					a1 += d[k+1] * real(h[k+1])
				}
				if n&1 == 0 {
					a0 += d[n] * real(h[n])
				}
			} else {
				for k := 0; k < n; k += 2 {
					a0 += d[k] * imag(h[k])
					a1 += d[k+1] * imag(h[k+1])
				}
				if n&1 == 0 {
					a0 += d[n] * imag(h[n])
				}
			}
			if n&1 != 0 {
				a0, a1 = a1, a0
			}
			// (-1)^m (-1)^{floor(m/2)} D_out
			s := out[m]
			if (m+m>>1)&1 != 0 {
				s = -s
			}
			row[m] = complex(s*a0, s*a1)
		}
	}
}

// Plan is a y-rotation by one angle beta up to degree P. Building one
// costs nothing: every rotation shares the Delta tables.
type Plan struct {
	P    int
	beta float64
}

// NewPlan returns the plan of the rotation by beta up to degree p.
func NewPlan(p int, beta float64) *Plan { return &Plan{P: p, beta: beta} }

// planStack is the largest degree whose RotateY scratch lives on the stack.
const planStack = 63

// RotateY transforms coefficients (triangular storage, degree p) in place
// so that they describe the same field built from source points rotated by
// Ry(beta) (inverse=false) or Ry(-beta) (inverse=true). It allocates
// nothing for p <= planStack once the tables reach degree p.
func (pl *Plan) RotateY(coeffs []complex128, p int, kind Kind, inverse bool) {
	sb, cb := math.Sincos(pl.beta)
	if inverse {
		sb = -sb
	}
	var stack [planStack + 1]complex128
	tmp := stack[:]
	if p > planStack {
		tmp = make([]complex128, p+1)
	}
	RotateY(coeffs, p, kind, cb, sb, tmp)
}

// RotateZ transforms coefficients in place so that they describe the same
// field built from source points rotated by Rz(psi): multipole coefficients
// pick up e^{-im psi} (they are conjugated sums), local ones e^{+im psi}.
func RotateZ(coeffs []complex128, p int, psi float64, kind Kind) {
	sign := -1.0
	if kind == Local {
		sign = 1
	}
	for m := 1; m <= p; m++ {
		sn, cs := math.Sincos(sign * float64(m) * psi)
		ph := complex(cs, sn)
		for n := m; n <= p; n++ {
			coeffs[harmonics.Idx(n, m)] *= ph
		}
	}
}

// Angles returns the spherical coordinates of t. The rotation aligning t
// with +z is "rotate sources by Rz(-phi), then by Ry(-theta)"; its inverse
// is "Ry(theta) then Rz(phi)".
func Angles(t vec.V3) (r, theta, phi float64) { return t.Spherical() }

// AxialM2M shifts multipole coefficients along +z: the result describes
// sources displaced by +t*zhat (i.e. the expansion center moved by -t*zhat):
//
//	M'_n^m = sum_{j=0}^{n-|m|} (t^j/j!) M_{n-j}^m.
//
// dst (degree pDst) must not alias src (degree pSrc).
func AxialM2M(dst []complex128, pDst int, src []complex128, pSrc int, t float64) {
	tp := make([]float64, pDst+1)
	tp[0] = 1
	for j := 1; j <= pDst; j++ {
		tp[j] = tp[j-1] * t / float64(j)
	}
	for n := 0; n <= pDst; n++ {
		for m := 0; m <= n; m++ {
			var sum complex128
			for j := 0; j+m <= n; j++ {
				if n-j > pSrc {
					continue
				}
				sum += complex(tp[j], 0) * src[harmonics.Idx(n-j, m)]
			}
			dst[harmonics.Idx(n, m)] = sum
		}
	}
}

// AxialL2L shifts local coefficients to a new center at w*zhat relative to
// the old one:
//
//	L'_n^m = sum_{j>=n} L_j^m w^{j-n}/(j-n)!.
//
// dst (degree pDst) must not alias src (degree pSrc).
func AxialL2L(dst []complex128, pDst int, src []complex128, pSrc int, w float64) {
	wp := make([]float64, pSrc+1)
	wp[0] = 1
	for j := 1; j <= pSrc; j++ {
		wp[j] = wp[j-1] * w / float64(j)
	}
	for n := 0; n <= pDst; n++ {
		for m := 0; m <= n; m++ {
			var sum complex128
			for j := n; j <= pSrc; j++ {
				if m > j {
					continue
				}
				sum += src[harmonics.Idx(j, m)] * complex(wp[j-n], 0)
			}
			dst[harmonics.Idx(n, m)] = sum
		}
	}
}
