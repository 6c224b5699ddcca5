package main

import (
	"fmt"
	"math"
	"sync"

	"treecode/internal/krylov"
	"treecode/internal/points"
	"treecode/internal/stats"
)

// The checks below decide whether one operation of a workload counts as
// failed. They are plain functions of the outputs so the unit tests can
// feed them a perturbed potential, a non-bitwise repeat, an over-budget
// error or a non-converged solve and see each one fail.

// checkRepeat fails unless got is bitwise identical to want: every
// evaluator in this repository is deterministic at any worker count, so a
// repeated evaluation on unchanged inputs must reproduce the first one
// exactly.
func checkRepeat(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("repeat has %d values, first evaluation %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("repeat differs from first evaluation at %d: %v vs %v", i, got[i], want[i])
		}
	}
	return nil
}

// sampleError compares approximate values at the sampled indices with
// their references: the relative L2 error over the sample and the L1 error
// scaled from the sample to all n targets, the quantity a Theorem 2 budget
// summed over every target bounds.
func sampleError(got []float64, idx []int, ref []float64, n int) (relL2, l1Scaled float64) {
	approx := make([]float64, len(idx))
	var l1 float64
	for k, i := range idx {
		approx[k] = got[i]
		l1 += math.Abs(got[i] - ref[k])
	}
	return stats.RelErr2(approx, ref), l1 * float64(n) / float64(len(idx))
}

// checkBudget fails when an error is not finite or exceeds its bound.
func checkBudget(err, bound float64) error {
	if math.IsNaN(err) || math.IsInf(err, 0) || !(err <= bound) {
		return fmt.Errorf("error %.4g exceeds its bound %.4g", err, bound)
	}
	return nil
}

// capacitanceTol is how far the computed capacitance of the unit sphere
// may sit from its analytic value 1 (the discretization error at the
// benchmark's mesh is 0.02%).
const capacitanceTol = 0.01

// checkSolve fails a GMRES solve that did not converge or whose
// capacitance is off the analytic value of the unit sphere.
func checkSolve(res *krylov.Result, capacitance float64) error {
	if !res.Converged {
		return fmt.Errorf("GMRES did not converge: residual %.3g after %d matvecs", res.Residual, res.Iterations)
	}
	if d := math.Abs(capacitance - 1); !(d <= capacitanceTol) {
		return fmt.Errorf("capacitance %.6f is %.2f%% from the analytic 1", capacitance, 100*d)
	}
	return nil
}

// checkFinite fails when any position is NaN or infinite.
func checkFinite(ps []points.Particle) error {
	for i, p := range ps {
		if x := p.Pos.X + p.Pos.Y + p.Pos.Z; math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("particle %d has non-finite position %v", i, p.Pos)
		}
	}
	return nil
}

// selfPotentials is the direct reference at the sampled particles:
// phi_i = sum over j != i of q_j/|x_i - x_j|. Coincident pairs are skipped,
// as the evaluators skip them, where direct.Potentials would return NaN.
func selfPotentials(set *points.Set, idx []int, workers int) []float64 {
	out := make([]float64, len(idx))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(idx); k += workers {
				i := idx[k]
				xi := set.Particles[i].Pos
				var phi float64
				for j, pj := range set.Particles {
					if r := xi.Dist(pj.Pos); j != i && r > 0 {
						phi += pj.Charge / r
					}
				}
				out[k] = phi
			}
		}(w)
	}
	wg.Wait()
	return out
}
