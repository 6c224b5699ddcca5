package core

import (
	"testing"

	"treecode/internal/points"
	"treecode/internal/tree"
)

// TestPotentialsInvariantAcrossBuildWorkers pins the end-to-end determinism
// claim of the parallel construction pipeline: with the tree build, degree
// selection, and upward pass all keyed off Config.Workers, the computed
// potentials must be bitwise identical at every worker count, for both
// evaluation modes.
func TestPotentialsInvariantAcrossBuildWorkers(t *testing.T) {
	set, err := points.GenerateCharged(points.Gaussian, 4000, 13, 4000, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []EvalMode{EvalWalk, EvalBatched} {
		var ref []float64
		for _, w := range []int{1, 3, 8} {
			e, err := New(set, Config{
				Method: Adaptive, Alpha: 0.6, Degree: 3,
				Workers: w, Eval: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Evaluate serially so only the construction varies.
			phi, _ := e.PotentialsWithWorkers(1)
			if ref == nil {
				ref = phi
				continue
			}
			for i := range phi {
				if phi[i] != ref[i] { // bitwise identity across worker counts is the property under test
					t.Fatalf("mode=%v workers=%d: phi[%d]=%v != %v",
						mode, w, i, phi[i], ref[i])
				}
			}
		}
	}
}

// TestSetChargesIdentityBitwise: recharging with the charges the evaluator
// was built with must reproduce the original potentials bitwise — the
// refreshed statistics and rebuilt expansions take a different code path
// (bottom-up stats, Clear+re-add into retained storage) but identical
// arithmetic where it matters.
func TestSetChargesIdentityBitwise(t *testing.T) {
	set, err := points.GenerateCharged(points.Uniform, 3000, 17, 3000, true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(set, Config{Method: Adaptive, Alpha: 0.5, Degree: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := e.Potentials()
	q := make([]float64, set.N())
	for i, p := range set.Particles {
		q[i] = p.Charge
	}
	if err := e.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	after, _ := e.Potentials()
	for i := range after {
		if after[i] != before[i] { // the recharge path must not perturb a single bit when charges are unchanged
			t.Fatalf("phi[%d] changed across identity recharge: %v -> %v", i, before[i], after[i])
		}
	}
}

// TestSetChargesReusesExpansions pins the allocation contract of the
// recharge path: node degrees don't change, so every node must keep its
// expansion storage across SetCharges instead of reallocating — that's
// what makes per-GMRES-iteration recharges cheap.
func TestSetChargesReusesExpansions(t *testing.T) {
	set, err := points.GenerateCharged(points.Gaussian, 2000, 23, 2000, true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(set, Config{Method: Adaptive, Alpha: 0.5, Degree: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ptrs := make(map[*tree.Node]interface{}, e.Tree.NNodes)
	e.Tree.Walk(func(n *tree.Node) { ptrs[n] = n.Mp })
	q := make([]float64, set.N())
	for i, p := range set.Particles {
		q[i] = 2 * p.Charge
	}
	if err := e.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	e.Tree.Walk(func(n *tree.Node) {
		if ptrs[n] != interface{}(n.Mp) {
			t.Fatalf("node at level %d start %d reallocated its expansion on recharge", n.Level, n.Start)
		}
	})
}

// TestSetChargesWorkerInvariance: the recharge path itself (stats refresh +
// upward) must also be bitwise worker-invariant.
func TestSetChargesWorkerInvariance(t *testing.T) {
	set, err := points.GenerateCharged(points.Gaussian, 3000, 29, 3000, true)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, set.N())
	for i, p := range set.Particles {
		q[i] = -0.7 * p.Charge
	}
	var ref []float64
	for _, w := range []int{1, 3, 8} {
		e, err := New(set, Config{Method: Adaptive, Alpha: 0.6, Degree: 3, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetCharges(q); err != nil {
			t.Fatal(err)
		}
		phi, _ := e.PotentialsWithWorkers(1)
		if ref == nil {
			ref = phi
			continue
		}
		for i := range phi {
			if phi[i] != ref[i] { // bitwise identity across worker counts is the property under test
				t.Fatalf("workers=%d: phi[%d] differs after recharge", w, i)
			}
		}
	}
}
