// Package direct computes exact O(n^2) potentials and fields. It is the
// accuracy reference for every error measurement in the experiments (the
// vector a in the paper's error definition ||a - a'|| / ||a||) and the
// brute-force baseline for the benchmarks. Each function runs its target
// loop on the work-stealing pool (internal/sched), one task per target;
// every target's sum is its own, so results do not depend on the worker
// count.
package direct

import (
	"math"

	"treecode/internal/points"
	"treecode/internal/sched"
	"treecode/internal/vec"
)

// SelfPotentials returns phi_i = sum_{j != i} q_j / |x_i - x_j| for every
// particle, excluding self-interaction, computed with workers goroutines
// (0 means GOMAXPROCS).
//
//treecode:hot
func SelfPotentials(set *points.Set, workers int) []float64 {
	n := set.N()
	out := make([]float64, n)
	sched.Run(n, workers, func(_ int, next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			xi := set.Particles[i].Pos
			var phi float64
			for j, pj := range set.Particles {
				if j == i {
					continue
				}
				phi += pj.Charge / xi.Dist(pj.Pos)
			}
			out[i] = phi
		}
	})
	return out
}

// Potentials returns the potential due to sources at each target point
// (no self-exclusion; targets are assumed distinct from sources).
//
//treecode:hot
func Potentials(sources []points.Particle, targets []vec.V3, workers int) []float64 {
	out := make([]float64, len(targets))
	sched.Run(len(targets), workers, func(_ int, next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			var phi float64
			for _, s := range sources {
				phi += s.Charge / targets[i].Dist(s.Pos)
			}
			out[i] = phi
		}
	})
	return out
}

// SelfFields returns, for every particle, the potential and the field
// E_i = -grad phi_i = sum_{j != i} q_j (x_i - x_j)/|x_i - x_j|^3.
//
//treecode:hot
func SelfFields(set *points.Set, workers int) (phi []float64, field []vec.V3) {
	n := set.N()
	phi = make([]float64, n)
	field = make([]vec.V3, n)
	sched.Run(n, workers, func(_ int, next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			xi := set.Particles[i].Pos
			var p float64
			var f vec.V3
			for j, pj := range set.Particles {
				if j == i {
					continue
				}
				d := xi.Sub(pj.Pos)
				r2 := d.Norm2()
				invR := 1 / math.Sqrt(r2)
				p += pj.Charge * invR
				f = f.Add(d.Scale(pj.Charge * invR / r2))
			}
			phi[i] = p
			field[i] = f
		}
	})
	return phi, field
}
