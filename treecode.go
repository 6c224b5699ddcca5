// Package treecode is an adaptive-degree multipole treecode library for the
// 3-D Laplace kernel, reproducing "Analyzing the Error Bounds of
// Multipole-Based Treecodes" (Sarin, Grama, Sameh; SC 1998).
//
// The library evaluates potentials and fields of n point charges
//
//	phi(x_i) = sum_{j != i} q_j / |x_i - x_j|
//
// in O(n log n) with the Barnes-Hut treecode or O(n) with the included FMM,
// in two flavors:
//
//   - Original: the classical fixed-degree method — every cluster is
//     approximated by a degree-p multipole expansion. Its per-interaction
//     error grows linearly with the cluster's net charge, so the aggregate
//     error grows with the total charge of the system.
//
//   - Adaptive: the paper's improved method — each cluster's degree is
//     chosen from its net charge (Theorem 3) so every accepted interaction
//     carries the same error bound, reducing the aggregate error to
//     O(log n) at marginal extra cost.
//
// Beyond potential evaluation the library includes the paper's two
// application layers: goroutine-parallel evaluation with proximity-
// preserving chunking (plus a deterministic cost simulator reproducing the
// paper's 32-processor speedup study), and a boundary-element solver whose
// GMRES matrix-vector products run through the treecode.
//
// Quick start:
//
//	parts, _ := treecode.Generate(treecode.Uniform, 100000, 1)
//	sys, _ := treecode.NewSystem(parts, treecode.Config{
//		Method: treecode.Adaptive,
//		Degree: 4,
//		Alpha:  0.5,
//	})
//	phi, stats := sys.Potentials()
package treecode

import (
	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/fmm"
	"treecode/internal/parallel"
	"treecode/internal/points"
	"treecode/internal/stats"
	"treecode/internal/vec"
)

// Vec3 is a point or vector in R^3.
type Vec3 = vec.V3

// Particle is a point charge (or mass).
type Particle = points.Particle

// Distribution names a built-in workload generator.
type Distribution = points.Distribution

// Built-in particle distributions.
const (
	Uniform    = points.Uniform
	Gaussian   = points.Gaussian
	MultiGauss = points.MultiGauss
	Grid       = points.Grid
	Shell      = points.Shell
	Plummer    = points.Plummer
)

// Method selects the treecode algorithm.
type Method = core.Method

// The two methods of the paper.
const (
	Original = core.Original
	Adaptive = core.Adaptive
)

// EvalMode selects the evaluation strategy: the per-particle tree walk or
// the leaf-batched dual-tree traversal (identical interaction sets, the
// batched mode amortizes traversal over each leaf and uses fused kernels).
type EvalMode = core.EvalMode

// The two evaluation modes.
const (
	EvalWalk    = core.EvalWalk
	EvalBatched = core.EvalBatched
)

// Config configures a System. See core.Config for field documentation; the
// important knobs are Method, Degree (fixed degree or adaptive minimum),
// and Alpha (the acceptance criterion parameter in (0,1)).
type Config = core.Config

// Stats reports the cost of an evaluation: Terms is the paper's serial cost
// metric (multipole series terms evaluated), PC/PP count cluster and direct
// interactions, BoundSum accumulates the per-interaction error bounds.
type Stats = core.Stats

// Generate creates n particles of the given distribution in the unit cube,
// deterministically from seed, with unit total charge.
func Generate(dist Distribution, n int, seed int64) ([]Particle, error) {
	set, err := points.Generate(dist, n, seed)
	if err != nil {
		return nil, err
	}
	return set.Particles, nil
}

// GenerateCharged is Generate with explicit total absolute charge and
// optionally alternating charge signs.
func GenerateCharged(dist Distribution, n int, seed int64, totalAbs float64, mixedSign bool) ([]Particle, error) {
	set, err := points.GenerateCharged(dist, n, seed, totalAbs, mixedSign)
	if err != nil {
		return nil, err
	}
	return set.Particles, nil
}

// System is a constructed treecode over a particle set, ready for repeated
// evaluations.
type System struct {
	ev  *core.Evaluator
	set *points.Set
}

// NewSystem builds the octree, selects multipole degrees per the configured
// method, and computes all cluster expansions.
func NewSystem(particles []Particle, cfg Config) (*System, error) {
	set := &points.Set{Particles: particles}
	ev, err := core.New(set, cfg)
	if err != nil {
		return nil, err
	}
	return &System{ev: ev, set: set}, nil
}

// Potentials returns the potential at every particle (self-interaction
// excluded) in input order, plus evaluation statistics.
func (s *System) Potentials() ([]float64, *Stats) { return s.ev.Potentials() }

// PotentialsAt evaluates the potential at arbitrary points.
func (s *System) PotentialsAt(targets []Vec3) ([]float64, *Stats) {
	return s.ev.PotentialsAt(targets)
}

// Fields returns potential and field E = -grad(phi) at every particle.
func (s *System) Fields() ([]float64, []Vec3, *Stats) { return s.ev.Fields() }

// SetCharges replaces the charges (input order) and rebuilds the cluster
// expansions, keeping the tree and degree selection — the cheap per-
// iteration update used by the BEM solver.
func (s *System) SetCharges(q []float64) error {
	if err := s.ev.SetCharges(q); err != nil {
		return err
	}
	// Keep the retained particle set consistent so Direct() and Energy()
	// see the new charges too.
	for i := range s.set.Particles {
		s.set.Particles[i].Charge = q[i]
	}
	return nil
}

// Direct computes the exact O(n^2) potentials — the error reference.
func (s *System) Direct() []float64 { return direct.SelfPotentials(s.set, 0) }

// Energy returns the total electrostatic energy U = 1/2 sum_i q_i phi_i
// computed with the treecode (O(n log n)), along with the evaluation stats.
func (s *System) Energy() (float64, *Stats) {
	phi, st := s.ev.Potentials()
	var u float64
	for i, p := range s.set.Particles {
		u += p.Charge * phi[i]
	}
	return u / 2, st
}

// Evaluator exposes the underlying evaluator for advanced instrumentation
// (interaction visiting, parallel cost simulation).
func (s *System) Evaluator() *core.Evaluator { return s.ev }

// RelativeError is the paper's error metric ||approx - exact||_2 /
// ||exact||_2.
func RelativeError(approx, exact []float64) float64 { return stats.RelErr2(approx, exact) }

// FMMConfig configures an FMM system.
type FMMConfig = fmm.Config

// FMMStats reports FMM work counts.
type FMMStats = fmm.Stats

// FMM is a constructed fast multipole method evaluator.
type FMM struct {
	ev *fmm.Evaluator
}

// NewFMM builds an FMM over the particles. The adaptive-degree selection of
// the treecode applies here too (the paper's "extension to the FMM").
func NewFMM(particles []Particle, cfg FMMConfig) (*FMM, error) {
	ev, err := fmm.New(&points.Set{Particles: particles}, cfg)
	if err != nil {
		return nil, err
	}
	return &FMM{ev: ev}, nil
}

// Potentials returns self-excluded potentials at all particles.
func (f *FMM) Potentials() ([]float64, *FMMStats) { return f.ev.Potentials() }

// Fields returns potential and field E = -grad(phi) at every particle.
func (f *FMM) Fields() ([]float64, []Vec3, *FMMStats) { return f.ev.Fields() }

// PotentialsAt evaluates the potential at arbitrary points using a
// target-side tree (no self-exclusion).
func (f *FMM) PotentialsAt(targets []Vec3) ([]float64, *FMMStats, error) {
	return f.ev.PotentialsAt(targets)
}

// SpeedupReport is the result of the parallel cost simulation.
type SpeedupReport = parallel.Report

// CostModel weighs the parallel cost simulation.
type CostModel = parallel.CostModel

// SimulateSpeedup reproduces the paper's parallel-performance experiment
// for this system on procs virtual processors with chunks of w particles.
func (s *System) SimulateSpeedup(procs, w int, model CostModel) (*SpeedupReport, error) {
	return parallel.Simulate(s.ev, procs, w, model, nil)
}
