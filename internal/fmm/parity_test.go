package fmm

import (
	"math"
	"math/rand"
	"testing"

	"treecode/internal/core"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// sameSourceSide reports the first difference between the source sides of
// a treecode and an FMM evaluator: tree shape, selected and carried
// degrees, and every expansion's center, radius and coefficients, all to
// the bit.
func sameSourceSide(t *testing.T, stage string, c *core.Evaluator, f *Evaluator) {
	t.Helper()
	var cn, fn []*tree.Node
	c.Tree.Walk(func(n *tree.Node) { cn = append(cn, n) })
	f.Tree.Walk(func(n *tree.Node) { fn = append(fn, n) })
	if len(cn) != len(fn) {
		t.Fatalf("%s: %d treecode nodes vs %d FMM nodes", stage, len(cn), len(fn))
	}
	bits := math.Float64bits
	for i, a := range cn {
		b := fn[i]
		if a.Start != b.Start || a.End != b.End || a.Level != b.Level {
			t.Fatalf("%s: node %d shape differs: [%d,%d)@%d vs [%d,%d)@%d",
				stage, i, a.Start, a.End, a.Level, b.Start, b.End, b.Level)
		}
		if a.Degree != b.Degree || a.Mp.Degree != b.Mp.Degree {
			t.Fatalf("%s: node %d degree %d carried %d vs degree %d carried %d",
				stage, i, a.Degree, a.Mp.Degree, b.Degree, b.Mp.Degree)
		}
		am, bm := a.Mp, b.Mp
		if am.Center != bm.Center || bits(am.Radius) != bits(bm.Radius) || bits(am.AbsCharge) != bits(bm.AbsCharge) {
			t.Fatalf("%s: node %d expansion anchor differs", stage, i)
		}
		for k := range am.Coeff {
			x, y := am.Coeff[k], bm.Coeff[k]
			if bits(real(x)) != bits(real(y)) || bits(imag(x)) != bits(imag(y)) {
				t.Fatalf("%s: node %d coefficient %d differs: %v vs %v", stage, i, k, x, y)
			}
		}
	}
	if c.MaxSelectedDegree() != f.MaxSelectedDegree() || c.UpwardTerms() != f.UpwardTerms() {
		t.Fatalf("%s: max degree %d/%d, upward terms %d/%d", stage,
			c.MaxSelectedDegree(), f.MaxSelectedDegree(), c.UpwardTerms(), f.UpwardTerms())
	}
}

// TestSourceSideParity pins the shared engine: a treecode and an FMM built
// on the same Gaussian set with equal source-side settings hold bitwise
// identical trees, degrees and expansions after construction, an identity
// refit, a migrating refit, a forced full rebuild, and a recharge.
func TestSourceSideParity(t *testing.T) {
	set, err := points.GenerateCharged(points.Gaussian, 1500, 19, 1500, true)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	c, err := core.New(set, core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5, LeafCap: 8, Workers: 2, Eval: core.EvalBatched, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(set, Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5, LeafCap: 8, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameSourceSide(t, "new", c, f)
	c.Potentials() // warm the plan cache so refits exercise revalidation

	update := func(stage string, pos []vec.V3, want core.RebuildKind) {
		t.Helper()
		kc, err := c.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		kf, err := f.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		if kc != want || kf != want {
			t.Fatalf("%s: update took %v/%v, want %v", stage, kc, kf, want)
		}
		sameSourceSide(t, stage, c, f)
	}
	update("identity update", movedPositions(f, nil, 0), core.RebuildRefit)

	rng := rand.New(rand.NewSource(7))
	update("migrating update", movedPositions(f, rng, 3e-3), core.RebuildRefit)
	if m := col.Metrics().Refit.Migrants; m == 0 {
		t.Fatal("migrating update moved no particle across a leaf boundary; test is vacuous")
	}

	// A particle outside the root cube forces the drift policy's full
	// rebuild on both evaluators.
	far := movedPositions(f, nil, 0)
	far[0].X += 10 * f.Tree.Root.Size()
	update("full rebuild", far, core.RebuildFull)

	q := make([]float64, set.N())
	for i := range q {
		q[i] = math.Sin(float64(i))
	}
	if err := c.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	if err := f.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	sameSourceSide(t, "recharge", c, f)
}
