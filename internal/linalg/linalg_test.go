package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if Dot(x, y) != 4-10+18 {
		t.Error("Dot")
	}
	z := append([]float64(nil), y...)
	Axpy(2, x, z)
	if z[0] != 6 || z[1] != -1 || z[2] != 12 {
		t.Errorf("Axpy = %v", z)
	}
	Scale(0.5, z)
	if z[0] != 3 || z[1] != -0.5 || z[2] != 6 {
		t.Errorf("Scale = %v", z)
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-15 {
		t.Error("Norm2")
	}
}

func randomDense(rng *rand.Rand, n int) *Dense {
	d := NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.NormFloat64()
			if i == j {
				v += float64(n) // diagonal dominance for conditioning
			}
			d.Set(i, j, v)
		}
	}
	return d
}

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 60} {
		a := randomDense(rng, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MatVec(b, xTrue)
		f, err := a.Factor()
		if err != nil {
			t.Fatal(err)
		}
		x := f.Solve(b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-9*(1+math.Abs(xTrue[i])) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	d := NewDense(3) // zero matrix
	if _, err := d.Factor(); err == nil {
		t.Error("singular matrix should fail to factor")
	}
	// Rank-deficient.
	d2 := NewDense(2)
	d2.Set(0, 0, 1)
	d2.Set(0, 1, 2)
	d2.Set(1, 0, 2)
	d2.Set(1, 1, 4)
	if _, err := d2.Factor(); err == nil {
		t.Error("rank-1 matrix should fail to factor")
	}
}

func TestMatVecAndApply(t *testing.T) {
	d := NewDense(2)
	d.Set(0, 0, 1)
	d.Set(0, 1, 2)
	d.Set(1, 0, 3)
	d.Set(1, 1, 4)
	d.Add(1, 1, 1) // now 5
	src := []float64{1, 1}
	dst := make([]float64, 2)
	d.Apply(dst, src)
	if dst[0] != 3 || dst[1] != 8 {
		t.Errorf("MatVec = %v", dst)
	}
	if d.At(1, 1) != 5 {
		t.Error("Add/At")
	}
}
