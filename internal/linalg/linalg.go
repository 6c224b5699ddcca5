// Package linalg provides the small dense linear algebra kit the BEM solver
// and the tests need: vector primitives, a dense matrix with LU
// factorization (the reference solver for validating GMRES), and matrix-
// vector products.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns x . y.
func Dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Axpy computes y += a*x.
func Axpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// Scale multiplies x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dense is a row-major n x n matrix.
type Dense struct {
	N int
	A []float64
}

// NewDense allocates an n x n zero matrix.
func NewDense(n int) *Dense { return &Dense{N: n, A: make([]float64, n*n)} }

// At returns A[i,j].
func (d *Dense) At(i, j int) float64 { return d.A[i*d.N+j] }

// Set assigns A[i,j].
func (d *Dense) Set(i, j int, v float64) { d.A[i*d.N+j] = v }

// Add increments A[i,j].
func (d *Dense) Add(i, j int, v float64) { d.A[i*d.N+j] += v }

// MatVec computes dst = A*src.
func (d *Dense) MatVec(dst, src []float64) {
	n := d.N
	for i := 0; i < n; i++ {
		row := d.A[i*n : (i+1)*n]
		var s float64
		for j, a := range row {
			s += a * src[j]
		}
		dst[i] = s
	}
}

// Apply implements the krylov.Operator contract.
func (d *Dense) Apply(dst, src []float64) { d.MatVec(dst, src) }

// LU holds an LU factorization with partial pivoting.
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// Factor computes the LU factorization of d (d is not modified).
func (d *Dense) Factor() (*LU, error) {
	n := d.N
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
	copy(f.lu, d.A)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot search.
		p, maxAbs := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(f.lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("linalg: singular matrix at column %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[k*n+j], f.lu[p*n+j] = f.lu[p*n+j], f.lu[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		inv := 1 / f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] * inv
			f.lu[i*n+k] = l
			for j := k + 1; j < n; j++ {
				f.lu[i*n+j] -= l * f.lu[k*n+j]
			}
		}
	}
	return f, nil
}

// Solve solves A x = b, returning a fresh solution vector.
func (f *LU) Solve(b []float64) []float64 {
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (unit lower).
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu[i*n+j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / f.lu[i*n+i]
	}
	return x
}
