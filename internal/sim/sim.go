// Package sim provides a leapfrog (kick-drift-kick) time integrator driving
// the treecode's force evaluation — the n-body simulation loop of the
// astrophysics applications that motivate the paper.
//
// Convention: particles carry positive "charges" interpreted as masses, and
// the interaction is attractive gravity with G = 1: the potential energy of
// a pair is -m_i m_j / r and the acceleration of particle i is
// -sum_j m_j (x_i - x_j)/r^3 = -E_i where E_i is the field computed by the
// treecode for the 1/r kernel.
package sim

import (
	"fmt"
	"math"
	"time"

	"treecode/internal/core"
	"treecode/internal/multipole"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// State is a snapshot of an n-body system.
type State struct {
	Set *points.Set // positions and masses
	Vel []vec.V3
}

// RebuildPolicy selects how the simulator maintains its force evaluator
// across steps.
type RebuildPolicy int

const (
	// RebuildAuto (the default) keeps one persistent evaluator alive for
	// the simulator's lifetime and moves it with Evaluator.Update each
	// force evaluation: an in-place refit when per-step drift is small, an
	// automatic full rebuild when the drift policy demands it. Under
	// batched evaluation (core.EvalBatched) the persistent evaluator also
	// carries its interaction-plan cache across steps, so steady-state
	// force calls skip the dual-tree traversal almost entirely; the
	// per-step plan reuse shows up in the obs time series (PlanReused,
	// PlanRebuilt, PlanCollectNS on each StepSample).
	RebuildAuto RebuildPolicy = iota
	// RebuildEvery constructs a fresh evaluator for every force
	// evaluation — the historical construct-per-call behavior, reproduced
	// bit for bit, kept for comparison runs and bitwise regression tests.
	RebuildEvery
)

func (p RebuildPolicy) String() string {
	if p == RebuildEvery {
		return "every"
	}
	return "auto"
}

// ParseRebuildPolicy parses the command-line spelling of a rebuild policy.
func ParseRebuildPolicy(s string) (RebuildPolicy, error) {
	switch s {
	case "", "auto":
		return RebuildAuto, nil
	case "every":
		return RebuildEvery, nil
	}
	return RebuildAuto, fmt.Errorf("sim: unknown rebuild policy %q (want auto or every)", s)
}

// BlockConfig configures hierarchical block timesteps — Valdarnini's
// power-of-two individual-timestep scheme. Particles are binned into
// rungs; rung r integrates with dt_r = Dt/2^r, so one Step call advances
// the whole system by the macro step Dt in 2^(MaxRungs-1) substeps, each
// evaluating forces only for the particles whose rung is due (every
// particle stays a source at its last-drifted — possibly future — position,
// the frozen mixed-age approximation). Rung assignment follows the
// per-particle criterion dt_i = Eta*sqrt(scale_i/|a_i|), with scale_i the
// softening length when positive and the particle's leaf size otherwise;
// promotions to shorter timesteps apply immediately, demotions only at
// substep boundaries aligned with the coarser rung's schedule, so every
// particle's position time always lands on its own rung grid.
type BlockConfig struct {
	// MaxRungs is the number of rung bins. 0 disables block timesteps
	// (the global-dt scheme); 1 runs the block machinery with a single
	// rung, which reproduces the global-dt trajectory bit for bit.
	MaxRungs int
	// Eta scales the timestep criterion dt_i = Eta*sqrt(scale_i/|a_i|).
	// 0 means the default 0.3.
	Eta float64
}

// maxBlockRungs bounds MaxRungs so the substep count 2^(MaxRungs-1)
// stays sane.
const maxBlockRungs = 16

const defaultBlockEta = 0.3

func (b BlockConfig) eta() float64 {
	if b.Eta == 0 {
		return defaultBlockEta
	}
	return b.Eta
}

// Config controls the simulation.
type Config struct {
	Dt      float64       // macro timestep
	Force   core.Config   // treecode configuration used every step
	Soften  float64       // Plummer softening length (0 = none)
	Rebuild RebuildPolicy // evaluator lifecycle across steps (default auto)
	Block   BlockConfig   // hierarchical block timesteps (zero = global dt)
}

// Simulator advances an n-body system with leapfrog and treecode forces.
type Simulator struct {
	Cfg   Config
	State State

	Steps int

	// acc caches the closing-kick acceleration of the previous Step. The
	// opening kick of step k+1 needs the acceleration at exactly the
	// positions the closing kick of step k used (nothing moves between
	// them), so reusing it halves the force evaluations per step without
	// changing a single bit of the trajectory.
	acc []vec.V3

	// eng is the persistent evaluator engine of the RebuildAuto policy: it
	// lives for the simulator's lifetime and follows the particles through
	// Evaluator.Update. posBuf is the reused original-order position
	// snapshot handed to Update.
	eng    *core.Evaluator
	posBuf []vec.V3

	// lastRebuild is what the most recent evaluator() call did — "build"
	// (fresh construction), "refit", or "full" (drift-policy fallback) —
	// feeding the per-step obs time series.
	lastRebuild string

	// accBuf is the reused scratch behind the slice Accelerations returns
	// (copy it to keep it across evaluations), sized on first use and grown
	// monotonically.
	accBuf []vec.V3

	// Block-timestep state (nil outside block mode). rung, blockAcc, and
	// nextSub are indexed by original particle index: the particle's
	// current rung, the acceleration from its most recent force evaluation
	// (its next opening kick consumes it; valid across substeps because
	// inactive particles do not move), and the substep index at which it is
	// next due. scaleBuf is the per-particle leaf-size scratch of the
	// unsoftened timestep criterion.
	rung     []int
	blockAcc []vec.V3
	nextSub  []int
	maskBuf  []bool
	scaleBuf []float64
}

// New validates and wraps the initial state. It rejects an empty system,
// a non-finite position, charge or velocity, a dt that is not finite and
// positive, a softening or block eta that is not finite and non-negative,
// and a block rung count outside [0, 16]: each would otherwise fail only
// at the first Step or silently change the run.
func New(st State, cfg Config) (*Simulator, error) {
	if st.Set == nil || st.Set.N() == 0 {
		return nil, fmt.Errorf("sim: empty system")
	}
	if err := st.Set.CheckFinite(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if len(st.Vel) != st.Set.N() {
		return nil, fmt.Errorf("sim: %d velocities for %d particles", len(st.Vel), st.Set.N())
	}
	for i, v := range st.Vel {
		if !finiteV3(v) {
			return nil, fmt.Errorf("sim: non-finite velocity %v of particle %d", v, i)
		}
	}
	if !(cfg.Dt > 0) || math.IsInf(cfg.Dt, 1) {
		return nil, fmt.Errorf("sim: dt must be finite and positive, got %v", cfg.Dt)
	}
	if !(cfg.Soften >= 0) || math.IsInf(cfg.Soften, 1) {
		return nil, fmt.Errorf("sim: softening must be finite and non-negative, got %v", cfg.Soften)
	}
	if cfg.Block.MaxRungs < 0 || cfg.Block.MaxRungs > maxBlockRungs {
		return nil, fmt.Errorf("sim: block rungs %d out of range [0,%d]", cfg.Block.MaxRungs, maxBlockRungs)
	}
	if !(cfg.Block.Eta >= 0) || math.IsInf(cfg.Block.Eta, 1) {
		return nil, fmt.Errorf("sim: block eta must be finite and non-negative, got %v", cfg.Block.Eta)
	}
	return &Simulator{Cfg: cfg, State: st}, nil
}

// finiteV3 reports whether every component of v is finite.
func finiteV3(v vec.V3) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// evaluator returns a treecode evaluator positioned at the current State:
// a fresh construction under RebuildEvery (or on the engine's first use),
// an incremental Evaluator.Update of the persistent engine otherwise.
func (s *Simulator) evaluator() (*core.Evaluator, error) { return s.evaluatorFor(nil) }

// evaluatorFor is evaluator with an optional active mask (original particle
// indices; nil = all moved). The mask reaches Evaluator.UpdateFor so a
// block substep's refit touches only the moved particles' ancestor chains.
func (s *Simulator) evaluatorFor(active []bool) (*core.Evaluator, error) {
	if s.Cfg.Rebuild == RebuildEvery {
		s.lastRebuild = "build"
		return core.New(s.State.Set, s.Cfg.Force)
	}
	if s.eng == nil {
		e, err := core.New(s.State.Set, s.Cfg.Force)
		if err != nil {
			return nil, err
		}
		s.eng = e
		s.lastRebuild = "build"
		return e, nil
	}
	ps := s.State.Set.Particles
	if cap(s.posBuf) < len(ps) {
		s.posBuf = make([]vec.V3, len(ps))
	}
	s.posBuf = s.posBuf[:len(ps)]
	for i := range ps {
		s.posBuf[i] = ps[i].Pos
	}
	kind, err := s.eng.UpdateFor(s.posBuf, active)
	if err != nil {
		return nil, err
	}
	s.lastRebuild = kind.String()
	return s.eng, nil
}

// accScratch returns the reused acceleration buffer sized to n. Entries are
// not cleared: every caller overwrites the slots it reports (the masked
// paths only guarantee active entries).
func (s *Simulator) accScratch(n int) []vec.V3 {
	if cap(s.accBuf) < n {
		s.accBuf = make([]vec.V3, n)
	}
	s.accBuf = s.accBuf[:n]
	return s.accBuf
}

// Engine returns the persistent evaluator of the RebuildAuto policy, or
// nil before the first force evaluation and under RebuildEvery. Read-only
// diagnostic access (refit counters live in the evaluator's obs collector;
// potentials at the current positions can be read off it directly).
func (s *Simulator) Engine() *core.Evaluator { return s.eng }

// Accelerations computes gravitational accelerations with the treecode.
// The returned slice is the simulator's reused scratch: it is valid until
// the next force evaluation; copy it to keep it longer.
func (s *Simulator) Accelerations() ([]vec.V3, *core.Stats, error) {
	return s.accelerationsFor(nil)
}

// accelerationsFor computes accelerations for the active target subset (by
// original particle index; nil = everyone, identical to Accelerations).
// With a mask, only active entries of the returned scratch are written —
// the rest hold stale values from earlier evaluations.
func (s *Simulator) accelerationsFor(active []bool) ([]vec.V3, *core.Stats, error) {
	if s.Cfg.Soften > 0 {
		return s.softenedAccelFor(active)
	}
	e, err := s.evaluatorFor(active)
	if err != nil {
		return nil, nil, err
	}
	s.captureScales(e)
	_, field, st := e.FieldsFor(active)
	acc := s.accScratch(len(field))
	if active == nil {
		for i, f := range field {
			acc[i] = f.Neg() // attractive
		}
		return acc, st, nil
	}
	for i, f := range field {
		if active[i] {
			acc[i] = f.Neg()
		}
	}
	return acc, st, nil
}

// softenedAccelFor computes Plummer-softened accelerations directly through
// the tree walk of near-field pairs plus far-field multipoles, restricted
// to the active target subset (nil = all). Softening only matters at short
// range, so it is applied to the direct part; the multipole far field is
// unsoftened (r >> eps there).
func (s *Simulator) softenedAccelFor(active []bool) ([]vec.V3, *core.Stats, error) {
	e, err := s.evaluatorFor(active)
	if err != nil {
		return nil, nil, err
	}
	s.captureScales(e)
	t := e.Tree
	eps2 := s.Cfg.Soften * s.Cfg.Soften
	n := len(t.Pos)
	acc := s.accScratch(n)
	st := &core.Stats{
		BuildTime:  e.BuildTime(),
		TreeHeight: t.Height,
		TreeNodes:  t.NNodes,
		TreeLeaves: t.NLeaves,
	}
	start := time.Now()
	// The visitor closures are hoisted out of the particle loop (reaching
	// the per-particle state through a and xi) so the loop allocates
	// nothing; per-iteration closures would escape once per particle.
	var (
		a  vec.V3
		xi vec.V3
	)
	cluster := func(nd *tree.Node, degree int) {
		st.PC++
		st.Terms += multipole.Terms(degree)
		if degree > st.MaxDegree {
			st.MaxDegree = degree
		}
		st.BoundSum += nd.Mp.BoundAtFast(xi, degree)
		_, grad := nd.Mp.EvaluateFieldFused(xi, degree)
		a = a.Add(grad) // attractive: acc = +grad(phi) with phi = sum m/r
	}
	particle := func(j int) {
		d := t.Pos[j].Sub(xi)
		r2 := d.Norm2() + eps2
		if r2 == 0 {
			return
		}
		st.PP++
		inv := 1 / r2
		a = a.Add(d.Scale(t.Q[j] * inv * math.Sqrt(inv)))
	}
	for i := 0; i < n; i++ {
		if active != nil && !active[t.Perm[i]] {
			continue
		}
		a = vec.V3{}
		xi = t.Pos[i]
		e.VisitInteractions(xi, i, cluster, particle)
		acc[t.Perm[i]] = a
	}
	st.EvalTime = time.Since(start)
	return acc, st, nil
}

// Step advances one kick-drift-kick timestep. The opening kick reuses the
// previous step's closing acceleration when available (one force
// evaluation per step instead of two); call InvalidateForces after
// mutating positions or masses outside Step. With Block.MaxRungs > 0 the
// step runs the hierarchical block-timestep scheme instead, advancing the
// same macro interval Dt through per-rung substeps (see BlockConfig).
//
// When the force configuration carries an obs collector, Step appends one
// StepSample to its per-step time series — the refit kind and evaluation
// stats of the closing kick plus the collector's own counter deltas. With
// obs disabled the mark is the inert zero value and no telemetry code runs.
func (s *Simulator) Step() error {
	if s.Cfg.Block.MaxRungs > 0 {
		return s.blockStep()
	}
	mark := s.Cfg.Force.Obs.StepBegin()
	acc := s.acc
	// kind is the step's evaluator lifecycle for the time series. A step
	// that pays an opening evaluation (first step, or after
	// InvalidateForces) reports that kind — the fresh "build" — rather
	// than the routine refit of its closing kick.
	kind := ""
	if acc == nil {
		a, _, err := s.Accelerations()
		if err != nil {
			return err
		}
		acc = a
		kind = s.lastRebuild
	}
	dt := s.Cfg.Dt
	st := s.State
	for i := range st.Vel {
		st.Vel[i] = st.Vel[i].Add(acc[i].Scale(dt / 2))
		st.Set.Particles[i].Pos = st.Set.Particles[i].Pos.Add(st.Vel[i].Scale(dt))
	}
	s.acc = nil // positions moved: the cache is stale until the closing kick
	acc2, stats, err := s.Accelerations()
	if err != nil {
		return err
	}
	for i := range st.Vel {
		st.Vel[i] = st.Vel[i].Add(acc2[i].Scale(dt / 2))
	}
	s.acc = acc2
	s.Steps++
	if kind == "" {
		kind = s.lastRebuild
	}
	info := obs.StepInfo{RefitKind: kind, N: len(st.Vel)}
	if stats != nil {
		info.EvalWall = stats.EvalTime
		info.BudgetReal = stats.BoundSum
	}
	s.Cfg.Force.Obs.StepEnd(mark, info)
	return nil
}

// InvalidateForces drops the cached trailing acceleration and the
// persistent evaluator engine. Call it after mutating State (positions,
// masses, particle count) by hand: the next force evaluation recomputes
// its opening kick and, under RebuildAuto, constructs a fresh engine —
// a full rebuild — instead of refitting a tree whose charges and shape no
// longer match the state.
func (s *Simulator) InvalidateForces() {
	s.acc = nil
	s.eng = nil
	s.posBuf = nil
	s.blockAcc = nil // the next block step re-evaluates and re-seeds rungs
	s.rung = nil
}

// Run advances k steps.
func (s *Simulator) Run(k int) error {
	for i := 0; i < k; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Energy returns kinetic, potential, and total energy (computed directly —
// O(n^2) — so only call it for diagnostics on modest n).
func (s *Simulator) Energy() (kin, pot, total float64) {
	ps := s.State.Set.Particles
	for i, p := range ps {
		kin += 0.5 * p.Charge * s.State.Vel[i].Norm2()
	}
	eps2 := s.Cfg.Soften * s.Cfg.Soften
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			r2 := ps[i].Pos.Dist2(ps[j].Pos) + eps2
			pot -= ps[i].Charge * ps[j].Charge / math.Sqrt(r2)
		}
	}
	return kin, pot, kin + pot
}

// Momentum returns the total linear momentum.
func (s *Simulator) Momentum() vec.V3 {
	var p vec.V3
	for i, part := range s.State.Set.Particles {
		p = p.Add(s.State.Vel[i].Scale(part.Charge))
	}
	return p
}
