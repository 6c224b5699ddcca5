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
	// scaleIn[kind] and scaleOut[kind] are RotateY's row scalings, with the
	// kind's D_in and D_out (N and 1/N for Multipole, the reverse for
	// Local): scaleIn[kind][m] = w_m (-1)^{floor(m/2)} D_in, with w_0 = 1
	// and w_m = 2 counting the order -m, and scaleOut[kind][m] = (-1)^m
	// (-1)^{floor(m/2)} D_out. Doubling and negation are exact, so each
	// entry is the D entry to the bit up to sign and a power of two.
	scaleIn, scaleOut [2][]float64
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
	for kind, d := range [2][2][]float64{Multipole: {t.norm, t.inv}, Local: {t.inv, t.norm}} {
		in, out := make([]float64, w), make([]float64, w)
		for m := 0; m <= n; m++ {
			in[m] = 2 * d[0][m]
			if m == 0 {
				in[m] = d[0][0]
			}
			if m&2 != 0 {
				in[m] = -in[m]
			}
			out[m] = d[1][m]
			if (m+m>>1)&1 != 0 {
				out[m] = -out[m]
			}
		}
		t.scaleIn[kind], t.scaleOut[kind] = in, out
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

// RotateY transforms coefficients c (triangular storage, degree p) in
// place so that they describe the same field built from source points
// rotated by Ry(beta), given as cosb = cos(beta) and sinb = sin(beta).
// tmp is scratch of length >= 2(p+1). It allocates nothing once the tables
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
// Both products take two rows of Delta per pass over the coefficients,
// and the two rows of a pass read the two parts of each coefficient, so
// one load feeds four independent sums; the first pass also applies D_in.
// cos(k beta) and sin(k beta), k <= p, are computed once per call into
// tmp[p+1:], and tmp[:p+1] holds the row between the products. Every sum
// keeps its terms and their order, so the result is bitwise that of one
// row per pass (DESIGN §16).
//
//treecode:hot
func RotateY(c []complex128, p int, kind Kind, cosb, sinb float64, tmp []complex128) {
	tabs := tablesTo(p)
	// cs[k] = cos(k beta) + i sin(k beta) by the angle-addition recurrence
	// from k = 0, shared by every degree.
	cs := tmp[p+1:][:p+1]
	ck, sk := 1.0, 0.0
	for k := range cs {
		cs[k] = complex(ck, sk)
		ck, sk = ck*cosb-sk*sinb, sk*cosb+ck*sinb
	}
	for n := 1; n <= p; n++ {
		t := tabs[n]
		w := n + 1
		row := c[n*w/2:][:w]
		firstProduct(tmp[:w], row, t.delta, cs, t.scaleIn[kind])
		secondProduct(row, tmp[:w], t.delta, t.scaleOut[kind])
	}
}

// firstProduct scales the degree-n row x (n = len(x)-1) in place by
// w_m (-1)^{floor(m/2)} D_in (in, the table's scaleIn) and sets h_k,
// 0 <= k <= n, from it and Delta^n (delta, row-major): e_k and o_k sum the
// even and odd orders of x against row k of Delta; cos(k beta) and
// sin(k beta) from cs combine them into f_k and g_k, weighted w_k (-1)^k
// for the second product. Rows k and k+1 share a pass, four sums on one
// load of each x_m: the row with n+k even reads real parts, the other
// imaginary parts. The first pass also scales x. Each parity of n has its
// own pass loop, so no pass branches on it; the second product keeps one
// loop, where the split measured no gain.
//
//treecode:hot
func firstProduct(h, x []complex128, delta []float64, cs []complex128, in []float64) {
	w := len(x)
	n := w - 1
	h, cs, delta = h[:w], cs[:w], delta[:w*w]
	if n&1 != 0 {
		er, or, ei, oi := scalePass(x, in, delta[w:][:w], delta[:w])
		h[0] = phased(1, ei, oi, cs[0])
		h[1] = phased(-2, er, or, cs[1])
		for k := 2; k < n; k += 2 {
			di, dr := delta[k*w:][:w], delta[(k+1)*w:][:w]
			var er, or, ei, oi float64
			for m := 0; m < n; m += 2 {
				x0, x1 := x[m], x[m+1]
				er += dr[m] * real(x0)
				or += dr[m+1] * real(x1)
				ei += di[m] * imag(x0)
				oi += di[m+1] * imag(x1)
			}
			h[k] = phased(2, ei, oi, cs[k])
			h[k+1] = phased(-2, er, or, cs[k+1])
		}
		return
	}
	er, or, ei, oi := scalePass(x, in, delta[:w], delta[w:][:w])
	h[0] = phased(1, er, or, cs[0])
	h[1] = phased(-2, ei, oi, cs[1])
	for k := 2; k < n; k += 2 {
		dr, di := delta[k*w:][:w], delta[(k+1)*w:][:w]
		var er, or, ei, oi float64
		for m := 0; m < n; m += 2 {
			x0, x1 := x[m], x[m+1]
			er += dr[m] * real(x0)
			or += dr[m+1] * real(x1)
			ei += di[m] * imag(x0)
			oi += di[m+1] * imag(x1)
		}
		er += dr[n] * real(x[n])
		ei += di[n] * imag(x[n])
		h[k] = phased(2, er, or, cs[k])
		h[k+1] = phased(-2, ei, oi, cs[k+1])
	}
	e, o := evenOdd(delta[n*w:], x) // row n alone, reading real parts
	h[n] = phased(2, e, o, cs[n])
}

// scalePass scales x in place by in (x_m = in_m x_m) and returns the
// first pass's sums over it: er and or of dr[m] real(x_m) over even and
// odd m, ei and oi of di[m] imag(x_m), in increasing m, every order
// included.
//
//treecode:hot
func scalePass(x []complex128, in, dr, di []float64) (er, or, ei, oi float64) {
	w := len(x)
	n := w - 1
	in, dr, di = in[:w], dr[:w], di[:w]
	for m := 0; m < n; m += 2 {
		c0, c1 := x[m], x[m+1]
		x0 := complex(in[m]*real(c0), in[m]*imag(c0))
		x1 := complex(in[m+1]*real(c1), in[m+1]*imag(c1))
		x[m], x[m+1] = x0, x1
		er += dr[m] * real(x0)
		or += dr[m+1] * real(x1)
		ei += di[m] * imag(x0)
		oi += di[m+1] * imag(x1)
	}
	if n&1 == 0 {
		c := x[n]
		xn := complex(in[n]*real(c), in[n]*imag(c))
		x[n] = xn
		er += dr[n] * real(xn)
		ei += di[n] * imag(xn)
	}
	return er, or, ei, oi
}

// secondProduct writes row m of the rotated coefficients, 0 <= m <= n =
// len(row)-1, from h: output order m reads f (m even) or g (m odd), so
// rows m and m+1 share a pass on one load of each h_k; the k with n+k
// even give its real part, the others its imaginary part, and out (the
// table's scaleOut) scales it.
//
//treecode:hot
func secondProduct(row, h []complex128, delta, out []float64) {
	w := len(row)
	n := w - 1
	h, out, delta = h[:w], out[:w], delta[:w*w]
	m := 0
	for ; m < n; m += 2 {
		d0, d1 := delta[m*w:][:w], delta[(m+1)*w:][:w]
		var a0, a1, b0, b1 float64 // even and odd k of rows m and m+1
		for k := 0; k < n; k += 2 {
			h0, h1 := h[k], h[k+1]
			a0 += d0[k] * real(h0)
			a1 += d0[k+1] * real(h1)
			b0 += d1[k] * imag(h0)
			b1 += d1[k+1] * imag(h1)
		}
		if n&1 == 0 {
			a0 += d0[n] * real(h[n])
			b0 += d1[n] * imag(h[n])
		} else {
			a0, a1 = a1, a0
			b0, b1 = b1, b0
		}
		row[m] = complex(out[m]*a0, out[m]*a1)
		row[m+1] = complex(out[m+1]*b0, out[m+1]*b1)
	}
	if m == n { // n even: row n alone, reading f
		a0, a1 := evenOdd(delta[n*w:], h)
		row[n] = complex(out[n]*a0, out[n]*a1)
	}
}

// evenOdd returns the sums of d[m] real(v[m]) over the even and the odd
// m <= n, in increasing m, for even n = len(v)-1.
func evenOdd(d []float64, v []complex128) (e, o float64) {
	n := len(v) - 1
	d = d[:n+1]
	for m := 0; m < n; m += 2 {
		e += d[m] * real(v[m])
		o += d[m+1] * real(v[m+1])
	}
	e += d[n] * real(v[n])
	return e, o
}

// phased returns s (f_k + i g_k) for s = w_k (-1)^k, with
// f_k = cos(k beta) e + sin(k beta) o and g_k = cos(k beta) o - sin(k beta) e,
// from cs = cos(k beta) + i sin(k beta).
func phased(s, e, o float64, cs complex128) complex128 {
	ck, sk := real(cs), imag(cs)
	return complex(s*(ck*e+sk*o), s*(ck*o-sk*e))
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
	var stack [2 * (planStack + 1)]complex128
	tmp := stack[:]
	if p > planStack {
		tmp = make([]complex128, 2*(p+1))
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
