package rotation

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"treecode/internal/harmonics"
)

// rotateYRef is the RotateY of the first rotation M2L, kept verbatim as the
// bitwise reference of the production one: one row of Delta per pass, two
// sums per row, and the cos(k beta) recurrence rerun for every degree. tmp
// is scratch of length >= p+1.
func rotateYRef(c []complex128, p int, kind Kind, cosb, sinb float64, tmp []complex128) {
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

// sameBits reports whether got matches want to the bit, where want[i] is
// the reference's coefficient i. A NaN matches any NaN: when both operands
// of an operation are NaNs, which payload the result carries depends on
// the operand order the compiler picks, and no result of interest is NaN.
// Off amd64 the compiler may fuse a multiply and an add, in different
// places in the two loops, so finite entries there must agree to 1e-14 of
// want's largest finite entry instead (DESIGN §16).
func sameBits(got, want []complex128) (int, bool) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	if runtime.GOARCH != "amd64" {
		var scale float64
		for _, v := range want {
			for _, x := range []float64{real(v), imag(v)} {
				if !math.IsInf(x, 0) && !math.IsNaN(x) {
					scale = math.Max(scale, math.Abs(x))
				}
			}
		}
		for i := range want {
			for _, x := range [][2]float64{{real(got[i]), real(want[i])}, {imag(got[i]), imag(want[i])}} {
				if !math.IsInf(x[1], 0) && !math.IsNaN(x[1]) && !(math.Abs(x[0]-x[1]) <= 1e-14*scale) {
					return i, false
				}
			}
		}
		return 0, true
	}
	for i := range want {
		if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
			return i, false
		}
	}
	return 0, true
}

// checkRotateY rotates c by RotateY and by rotateYRef and fails unless the
// two agree to the bit.
func checkRotateY(t *testing.T, c []complex128, p int, kind Kind, cosb, sinb float64) {
	t.Helper()
	got := append([]complex128(nil), c...)
	want := append([]complex128(nil), c...)
	RotateY(got, p, kind, cosb, sinb, make([]complex128, 2*(p+1)))
	rotateYRef(want, p, kind, cosb, sinb, make([]complex128, p+1))
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("p=%d kind=%d (cos, sin)=(%v, %v): coefficient %d is %v, reference %v",
			p, kind, cosb, sinb, i, got[i], want[i])
	}
}

// refAngles are the (cos beta, sin beta) of TestRotateYMatchesReference:
// beta = 0, pi/2 and pi exactly, with sin beta = +-0 (and cos beta = +-0
// at pi/2), as math.Sincos gives them, and three random angles.
func refAngles(rng *rand.Rand) [][2]float64 {
	negZero := math.Copysign(0, -1)
	out := [][2]float64{
		{1, 0}, {1, negZero}, {0, 1}, {negZero, 1}, {0, -1}, {-1, 0}, {-1, negZero},
	}
	for _, beta := range []float64{math.Pi / 2, math.Pi, -math.Pi, rng.Float64() * math.Pi,
		-rng.Float64() * math.Pi, (2*rng.Float64() - 1) * 1e-9} {
		s, c := math.Sincos(beta)
		out = append(out, [2]float64{c, s})
	}
	return out
}

// TestRotateYMatchesReference pins RotateY to rotateYRef bit for bit at
// degrees 0-30 and 64 (one above planStack), for both kinds, every
// refAngles rotation and Schmidt-scaled random coefficients in which some
// entries are +0 and -0.
func TestRotateYMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	degrees := []int{64}
	for p := 0; p <= 30; p++ {
		degrees = append(degrees, p)
	}
	for _, p := range degrees {
		tabs := tablesTo(p)
		for _, kind := range []Kind{Multipole, Local} {
			c := make([]complex128, harmonics.Len(p))
			for n := 0; n <= p; n++ {
				for m := 0; m <= n; m++ {
					i := harmonics.Idx(n, m)
					v := complex(rng.NormFloat64(), rng.NormFloat64())
					switch {
					case i%7 == 3:
						v = complex(math.Copysign(0, -1), real(v))
					case i%11 == 5:
						v = complex(imag(v), 0)
					}
					if kind == Multipole {
						v /= complex(tabs[n].norm[m], 0)
					} else {
						v *= complex(tabs[n].norm[m], 0)
					}
					c[i] = v
				}
			}
			for _, a := range refAngles(rng) {
				checkRotateY(t, c, p, kind, a[0], a[1])
			}
		}
	}
}

// FuzzRotateY maps arbitrary inputs onto a rotation: data gives the
// coefficients' bits (8 bytes per part, reused cyclically, zero-padded),
// (x, y) the angle as (cos beta, sin beta) = (x, y)/|(x, y)| (beta = 0
// when they carry no usable direction), and k the degree (0-30) and the
// kind. RotateY must match rotateYRef to the bit.
func FuzzRotateY(f *testing.F) {
	rng := rand.New(rand.NewSource(22))
	parts := func(n int) []byte {
		b := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(rng.NormFloat64()*math.Ldexp(1, rng.Intn(40)-20)))
		}
		return b
	}
	f.Add(parts(90), 1.0, 0.0, 8)
	f.Add(parts(90), 1.0, math.Copysign(0, -1), 31+8)
	f.Add(parts(210), 0.0, 1.0, 13)
	f.Add(parts(210), -1.0, 0.0, 31+13)
	f.Add(parts(992), 0.6, -0.8, 30)
	f.Add(parts(992), -0.28, 0.96, 31+30)
	f.Add(parts(2), 1e-300, 1e-300, 1)
	f.Add([]byte{}, 0.3, 0.4, 4)
	f.Fuzz(func(t *testing.T, data []byte, x, y float64, k int) {
		if k < 0 {
			k = -(k + 1)
		}
		p, kind := k%31, Kind((k/31)&1)
		cosb, sinb := 1.0, 0.0
		if s := math.Max(math.Abs(x), math.Abs(y)); s > 0 && !math.IsInf(s, 0) {
			x, y = x/s, y/s
			h := math.Sqrt(x*x + y*y)
			cosb, sinb = x/h, y/h
		}
		words := make([]byte, max(8, (len(data)+7)/8*8)) // zero-padded copy
		copy(words, data)
		word := func(i int) float64 {
			i = 8 * (i % (len(words) / 8))
			return math.Float64frombits(binary.LittleEndian.Uint64(words[i:]))
		}
		c := make([]complex128, harmonics.Len(p))
		for i := range c {
			c[i] = complex(word(2*i), word(2*i+1))
		}
		checkRotateY(t, c, p, kind, cosb, sinb)
	})
}
