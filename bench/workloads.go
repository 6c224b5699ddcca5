package main

import (
	"fmt"
	"math"
	"math/rand"

	"treecode/internal/bem"
	"treecode/internal/core"
	"treecode/internal/fmm"
	"treecode/internal/krylov"
	"treecode/internal/mesh"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/sim"
	"treecode/internal/stats"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// params is what a run hands a workload. The seed reaches the code under
// test only through the inputs generated from it.
type params struct {
	seed    int64
	scale   int // divides problem sizes: 1 in the benchmark, larger in the smoke test
	workers int // evaluator workers, equal to GOMAXPROCS
}

// size scales a problem size down, no lower than 500 particles, the fewest
// at which every layer, the FMM's M2L included, still has work.
func (p params) size(n int) int {
	return max(n/p.scale, 500)
}

// sampleTargets is how many seeded targets the accuracy check compares
// with direct summation.
const sampleTargets = 1024

// sample draws the accuracy-check targets from a stream separate from the
// one that placed the particles.
func (p params) sample(n int) []int {
	rng := rand.New(rand.NewSource(p.seed*7919 + 17))
	return rng.Perm(n)[:min(n, sampleTargets)]
}

// A workload turns params into a builder. prepare generates the inputs and
// is not timed; the builder constructs the engine and runs its first, cold
// operation, which is what setup_s times. A non-nil collector is attached
// from construction on (traced runs only).
type workload struct {
	name    string
	prepare func(p params) (builder, error)
}

type builder func(col *obs.Collector) (*instance, error)

// census counts the work of one evaluation: far-field terms (M2P, or M2L
// for the FMM), far-field interactions, direct pairs and upward-pass terms.
type census struct {
	terms, far, near, upTerms int64
}

func coreCensus(s *core.Stats) census {
	return census{terms: s.Terms, far: s.PC, near: s.PP, upTerms: s.UpwardTerms}
}

// instance is a set-up workload ready for its timed loop.
type instance struct {
	eng engine
	// unit runs one closed-loop unit of work: one evaluation or step, or
	// one GMRES solve of many matvecs. It returns a sample per operation,
	// how many of them failed their check, and the first failure.
	unit func() (ops []sample, failed int, err error)
	// accuracy compares the engine's current result with a direct
	// reference and checks it against the workload's a-priori bound. It
	// returns the relative L2 error and the realized error as a share of
	// the bound.
	accuracy func() (relErr, boundFrac float64, err error)
	// eval runs one evaluation of the kind the unit performs.
	eval func() census
	// sources is the current particle set in original order.
	sources func() *points.Set
	// detail is a workload-specific line for the stderr table.
	detail string
}

// engine is the evaluator surface the traced run probes. The treecode and
// FMM evaluators both provide it through the adapters below.
type engine interface {
	SetCharges(q []float64) error
	Update(pos []vec.V3) (core.RebuildKind, error)
	tree() *tree.Tree
	setObs(*obs.Collector)
	setWorkers(int)
}

type coreEngine struct{ *core.Evaluator }

func (e coreEngine) tree() *tree.Tree        { return e.Tree }
func (e coreEngine) setObs(c *obs.Collector) { e.Cfg.Obs = c }
func (e coreEngine) setWorkers(n int)        { e.Cfg.Workers = n }

// simEngine is the simulator's persistent evaluator; the simulator's own
// collector records its per-step series.
type simEngine struct {
	coreEngine
	s *sim.Simulator
}

func (e simEngine) setObs(c *obs.Collector) {
	e.coreEngine.setObs(c)
	e.s.Cfg.Force.Obs = c
}

type fmmEngine struct{ *fmm.Evaluator }

func (e fmmEngine) tree() *tree.Tree        { return e.Tree }
func (e fmmEngine) setObs(c *obs.Collector) { e.Cfg.Obs = c }
func (e fmmEngine) setWorkers(n int)        { e.Cfg.Workers = n }

// workloads lists the benchmark's workloads; BENCHMARK.json records why
// each one exists.
var workloads = []workload{
	{"static-gauss", static(points.Gaussian, 10000,
		core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5, Eval: core.EvalBatched})},
	{"uniform-p4", static(points.Uniform, 50000,
		core.Config{Method: core.Original, Degree: 4, Alpha: 0.5, Eval: core.EvalBatched})},
	{"bem-sphere", bemSphere(3, 6,
		core.Config{Method: core.Adaptive, Degree: 6, Alpha: 0.4, Eval: core.EvalWalk})},
	{"nbody-plummer", nbody(6000,
		sim.Config{Dt: 1e-4, Force: core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5, Eval: core.EvalBatched}})},
	{"fmm-uniform", fmmUniform(4000, fmm.Config{Method: core.Original, Degree: 8, Alpha: 0.5})},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// one wraps a single timed operation and its check.
func one(s sample, err error) ([]sample, int, error) {
	if err != nil {
		return []sample{s}, 1, err
	}
	return []sample{s}, 0, nil
}

// static is a treecode over a fixed particle set: the unit is one
// Potentials call, which must repeat the cold evaluation bit for bit.
func static(dist points.Distribution, n int, cfg core.Config) func(params) (builder, error) {
	return func(p params) (builder, error) {
		set, err := points.Generate(dist, p.size(n), p.seed)
		if err != nil {
			return nil, err
		}
		idx := p.sample(set.N())
		return func(col *obs.Collector) (*instance, error) {
			c := cfg
			c.Workers, c.Obs = p.workers, col
			e, err := core.New(set, c)
			if err != nil {
				return nil, err
			}
			cold, st := e.Potentials()
			return &instance{
				eng: coreEngine{e},
				unit: func() ([]sample, int, error) {
					w := startWatch()
					phi, _ := e.Potentials()
					s := w.stop()
					return one(s, checkRepeat(phi, cold))
				},
				accuracy: func() (float64, float64, error) {
					ref := selfPotentials(set, idx, p.workers)
					rel, l1 := sampleError(cold, idx, ref, set.N())
					return rel, l1 / st.BoundSum, checkBudget(l1, st.BoundSum)
				},
				eval: func() census {
					_, s := e.Potentials()
					return coreCensus(s)
				},
				sources: func() *points.Set { return set },
			}, nil
		}, nil
	}
}

// nbody integrates a Plummer sphere from rest with the persistent
// evaluator: the unit is one leapfrog Step (tree refit, plan
// revalidation, upward pass and batched Fields).
func nbody(n int, cfg sim.Config) func(params) (builder, error) {
	return func(p params) (builder, error) {
		set, err := points.Generate(points.Plummer, p.size(n), p.seed)
		if err != nil {
			return nil, err
		}
		idx := p.sample(set.N())
		return func(col *obs.Collector) (*instance, error) {
			c := cfg
			c.Force.Workers, c.Force.Obs = p.workers, col
			s, err := sim.New(sim.State{Set: set.Clone(), Vel: make([]vec.V3, set.N())}, c)
			if err != nil {
				return nil, err
			}
			if err := s.Step(); err != nil {
				return nil, err
			}
			e := s.Engine()
			return &instance{
				eng: simEngine{coreEngine{e}, s},
				unit: func() ([]sample, int, error) {
					w := startWatch()
					err := s.Step()
					d := w.stop()
					if err == nil {
						err = checkFinite(s.State.Set.Particles)
					}
					return one(d, err)
				},
				accuracy: func() (float64, float64, error) {
					phi, st := e.Potentials()
					ref := selfPotentials(s.State.Set, idx, p.workers)
					rel, l1 := sampleError(phi, idx, ref, len(phi))
					return rel, l1 / st.BoundSum, checkBudget(l1, st.BoundSum)
				},
				eval: func() census {
					_, _, st := e.Fields()
					return coreCensus(st)
				},
				sources: func() *points.Set { return s.State.Set },
			}, nil
		}, nil
	}
}

// fmmUniform is the FMM over a fixed uniform set: the unit is one
// Potentials call, which must repeat the cold evaluation bit for bit.
func fmmUniform(n int, cfg fmm.Config) func(params) (builder, error) {
	return func(p params) (builder, error) {
		set, err := points.Generate(points.Uniform, p.size(n), p.seed)
		if err != nil {
			return nil, err
		}
		idx := p.sample(set.N())
		return func(col *obs.Collector) (*instance, error) {
			c := cfg
			c.Workers, c.Obs = p.workers, col
			e, err := fmm.New(set, c)
			if err != nil {
				return nil, err
			}
			cold, _ := e.Potentials()
			return &instance{
				eng: fmmEngine{e},
				unit: func() ([]sample, int, error) {
					w := startWatch()
					phi, _ := e.Potentials()
					s := w.stop()
					return one(s, checkRepeat(phi, cold))
				},
				accuracy: func() (float64, float64, error) {
					ref := selfPotentials(set, idx, p.workers)
					rel, _ := sampleError(cold, idx, ref, set.N())
					// The FMM records no Theorem 2 budget; its a-priori
					// bound is on the relative error.
					bound := fmm.EstimateError(c.Alpha, c.Degree, e.Tree.Height)
					return rel, rel / bound, checkBudget(rel, bound)
				},
				eval: func() census {
					_, s := e.Potentials()
					return census{terms: s.M2LTerms, far: s.M2L, near: s.P2P, upTerms: s.UpTerms}
				},
				sources: func() *points.Set { return set },
			}, nil
		}, nil
	}
}

// bemSphere solves the single-layer system of the unit sphere with
// GMRES(10) to 1e-6: the unit is one solve from x = 0 and its operations
// are the treecode matvecs. Every solve must converge, give the analytic
// capacitance 1 within capacitanceTol, and repeat the first solve's
// solution bit for bit. The seed translates the sphere and picks the
// density of the accuracy check. It does not rotate it: a rotation of even
// a few degrees changes the Theorem 3 reference leaf in about one
// orientation in seven, which raises every degree by one and the matvec
// cost by a quarter, while the octree, built on the points' bounding cube,
// is blind to a translation.
func bemSphere(subdiv, quad int, cfg core.Config) func(params) (builder, error) {
	return func(p params) (builder, error) {
		rng := rand.New(rand.NewSource(p.seed))
		level := subdiv
		if p.scale > 1 {
			level = 1
		}
		m := mesh.Sphere(level, 1, vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
		nv := m.NumVerts()
		sigma := make([]float64, nv)
		for i := range sigma {
			sigma[i] = 0.5 + rng.Float64()
		}
		ones := make([]float64, nv)
		for i := range ones {
			ones[i] = 1
		}
		return func(col *obs.Collector) (*instance, error) {
			c := cfg
			c.Workers, c.Obs = p.workers, col
			op, err := bem.New(m, quad, &c)
			if err != nil {
				return nil, err
			}
			if _, err := op.TreeApply(make([]float64, nv), ones); err != nil {
				return nil, err
			}
			e := op.Evaluator()
			var first []float64 // the first solve's solution
			in := &instance{eng: coreEngine{e}}
			in.unit = func() ([]sample, int, error) {
				var ops []sample
				var opErr error
				a := krylov.OperatorFunc(func(dst, src []float64) {
					w := startWatch()
					_, err := op.TreeApply(dst, src)
					ops = append(ops, w.stop())
					if opErr == nil {
						opErr = err
					}
				})
				x := make([]float64, nv)
				w := startWatch()
				res, err := krylov.GMRES(a, ones, x, krylov.Options{Restart: 10, MaxIters: 500, Tol: 1e-6})
				solve := w.stop()
				switch {
				case err != nil:
				case opErr != nil:
					err = opErr
				default:
					in.detail = fmt.Sprintf("GMRES(10) converged to 1e-6 in %d matvecs", res.Iterations)
					err = checkSolve(res, op.IntegrateDensity(x))
				}
				if err == nil {
					if first == nil {
						first = x
					} else {
						err = checkRepeat(x, first)
					}
				}
				if len(ops) == 0 {
					ops = append(ops, solve)
				}
				if err != nil {
					return ops, len(ops), err
				}
				return ops, 0, nil
			}
			in.accuracy = func() (float64, float64, error) {
				got := make([]float64, nv)
				st, err := op.TreeApply(got, sigma)
				if err != nil {
					return 0, 0, err
				}
				want := make([]float64, nv)
				op.Apply(want, sigma)
				var l1 float64
				for i := range got {
					l1 += math.Abs(got[i] - want[i])
				}
				return stats.RelErr2(got, want), l1 / st.BoundSum, checkBudget(l1, st.BoundSum)
			}
			in.eval = func() census {
				_, st := e.PotentialsAt(m.Verts)
				return coreCensus(st)
			}
			in.sources = func() *points.Set {
				set := &points.Set{Particles: make([]points.Particle, len(op.Sources))}
				for i, s := range op.Sources {
					set.Particles[i] = points.Particle{Pos: s.Pos, Charge: s.Weight[0] + s.Weight[1] + s.Weight[2]}
				}
				return set
			}
			return in, nil
		}, nil
	}
}

// describe gives the workload's tree sizes, and its detail line, for the
// stderr table.
func describe(in *instance) string {
	t := in.eng.tree()
	s := fmt.Sprintf("%d particles, %d nodes, %d leaves, height %d", len(t.Pos), t.NNodes, t.NLeaves, t.Height)
	if in.detail != "" {
		s += "; " + in.detail
	}
	return s
}
