package precond

import (
	"math"
	"math/rand"
	"testing"

	"treecode/internal/krylov"
	"treecode/internal/linalg"
)

func TestBlockJacobiIsExactForBlockDiagonal(t *testing.T) {
	// For a block-diagonal matrix, block Jacobi is the exact inverse.
	rng := rand.New(rand.NewSource(1))
	n := 10
	a := linalg.NewDense(n)
	blocks := [][]int{{0, 1, 2}, {3, 4, 5, 6}, {7, 8, 9}}
	var mats []*linalg.Dense
	for _, idx := range blocks {
		m := linalg.NewDense(len(idx))
		for i := range idx {
			for j := range idx {
				v := rng.NormFloat64()
				if i == j {
					v += 5
				}
				m.Set(i, j, v)
				a.Set(idx[i], idx[j], v)
			}
		}
		mats = append(mats, m)
	}
	bj, err := NewBlockJacobi(n, blocks, mats)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MatVec(b, x)
	z := make([]float64, n)
	bj.Apply(z, b)
	for i := range x {
		if math.Abs(z[i]-x[i]) > 1e-10*(1+math.Abs(x[i])) {
			t.Fatalf("block Jacobi not exact at %d: %v vs %v", i, z[i], x[i])
		}
	}
}

func TestBlockJacobiValidation(t *testing.T) {
	m := linalg.NewDense(2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	// Wrong matrix size.
	if _, err := NewBlockJacobi(3, [][]int{{0, 1, 2}}, []*linalg.Dense{m}); err == nil {
		t.Error("size mismatch should fail")
	}
	// Missing index.
	if _, err := NewBlockJacobi(3, [][]int{{0, 1}}, []*linalg.Dense{m}); err == nil {
		t.Error("uncovered index should fail")
	}
	// Duplicate index.
	if _, err := NewBlockJacobi(2, [][]int{{0, 0}}, []*linalg.Dense{m}); err == nil {
		t.Error("duplicate index should fail")
	}
	// Out of range.
	if _, err := NewBlockJacobi(2, [][]int{{0, 5}}, []*linalg.Dense{m}); err == nil {
		t.Error("out-of-range index should fail")
	}
	// Block count mismatch.
	if _, err := NewBlockJacobi(2, [][]int{{0, 1}}, nil); err == nil {
		t.Error("count mismatch should fail")
	}
	// Singular block.
	z := linalg.NewDense(2)
	if _, err := NewBlockJacobi(2, [][]int{{0, 1}}, []*linalg.Dense{z}); err == nil {
		t.Error("singular block should fail")
	}
}

// Preconditioning should cut GMRES iterations on an ill-conditioned system.
func TestPrecondAcceleratesGMRES(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 80
	a := linalg.NewDense(n)
	// Badly scaled diagonally dominant matrix.
	for i := 0; i < n; i++ {
		scale := math.Pow(10, 3*float64(i)/float64(n))
		for j := 0; j < n; j++ {
			v := 0.1 * rng.NormFloat64() * scale
			if i == j {
				v = (2 + rng.Float64()) * scale * float64(n) / 10
			}
			a.Set(i, j, v)
		}
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MatVec(b, xTrue)

	run := func(p krylov.Operator) int {
		x := make([]float64, n)
		res, err := krylov.GMRES(a, b, x, krylov.Options{
			Restart: 10, MaxIters: 3000, Tol: 1e-10, Precond: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			return 1 << 30
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-5*(1+math.Abs(xTrue[i])) {
				t.Fatalf("preconditioned solution wrong at %d", i)
			}
		}
		return res.Iterations
	}
	plain := run(nil)
	// One-index blocks: block Jacobi is diagonal scaling.
	blocks := make([][]int, n)
	mats := make([]*linalg.Dense, n)
	for i := range blocks {
		blocks[i] = []int{i}
		mats[i] = linalg.NewDense(1)
		mats[i].Set(0, 0, a.At(i, i))
	}
	j, err := NewBlockJacobi(n, blocks, mats)
	if err != nil {
		t.Fatal(err)
	}
	jac := run(j)
	if jac >= plain {
		t.Errorf("Jacobi (%d iters) did not beat plain GMRES (%d iters)", jac, plain)
	}
	t.Logf("iterations: plain %d, Jacobi %d", plain, jac)
}
