// Package sim provides a leapfrog (kick-drift-kick) time integrator driving
// the treecode's force evaluation — the n-body simulation loop of the
// astrophysics applications that motivate the paper.
//
// Convention: particles carry positive "charges" interpreted as masses, and
// the interaction is attractive gravity with G = 1: the potential energy of
// a pair is -m_i m_j / r and the acceleration of particle i is
// -sum_j m_j (x_i - x_j)/r^3 = -E_i where E_i is the field computed by the
// treecode for the 1/r kernel. A Plummer softening length ε
// (core.Config.Soften) replaces r by sqrt(r²+ε²) in every directly summed
// pair and in Energy; the multipole far field stays unsoftened.
package sim

import (
	"fmt"
	"math"

	"treecode/internal/core"
	"treecode/internal/points"
	"treecode/internal/vec"
)

// State is a snapshot of an n-body system.
type State struct {
	Set *points.Set // positions and masses
	Vel []vec.V3
}

// BlockConfig configures hierarchical block timesteps — Valdarnini's
// power-of-two individual-timestep scheme, which every Step runs; a global
// step is its one-rung case. Particles are binned into rungs; rung r
// integrates with dt_r = Dt/2^r, so one Step call advances the whole
// system by the macro step Dt in 2^(MaxRungs-1) substeps (one for
// MaxRungs 0), each evaluating forces only for the particles whose rung is
// due (every particle stays a source at its last-drifted — possibly future
// — position, the frozen mixed-age approximation). Rung assignment follows
// the per-particle criterion dt_i = Eta*sqrt(scale_i/|a_i|), with scale_i
// the softening length (Force.Soften) when positive and the particle's
// leaf size otherwise; promotions to shorter timesteps apply immediately,
// demotions only at substep boundaries aligned with the coarser rung's
// schedule, so every particle's position time always lands on its own
// rung grid.
type BlockConfig struct {
	// MaxRungs is the number of rung bins. 0 and 1 are the same one-rung
	// scheme: every particle steps the macro step Dt together, which is
	// the global-dt kick-drift-kick leapfrog.
	MaxRungs int
	// Eta scales the timestep criterion dt_i = Eta*sqrt(scale_i/|a_i|).
	// 0 means the default 0.3.
	Eta float64
}

// maxBlockRungs bounds MaxRungs so the substep count 2^(MaxRungs-1)
// stays sane.
const maxBlockRungs = 16

const defaultBlockEta = 0.3

// rungs returns the rung count the scheme runs at: MaxRungs, with 0
// meaning the one-rung (global-dt) case.
func (b BlockConfig) rungs() int { return max(1, b.MaxRungs) }

func (b BlockConfig) eta() float64 {
	if b.Eta == 0 {
		return defaultBlockEta
	}
	return b.Eta
}

// Config controls the simulation.
type Config struct {
	Dt    float64     // macro timestep
	Force core.Config // treecode configuration used every step, softening included
	Block BlockConfig // hierarchical block timesteps (zero = one rung, global dt)
}

// Simulator advances an n-body system with leapfrog and treecode forces.
//
// Only Step may change State's positions, masses or particle count. Each
// particle's opening kick reuses the acceleration of its last closing
// kick, and the persistent engine follows positions alone, so a position
// moved by hand is kicked with the force at its old place, and an edited
// mass never reaches the forces (Energy does read it).
type Simulator struct {
	Cfg   Config
	State State

	Steps int

	// eng is the persistent evaluator engine: it lives for the simulator's
	// lifetime and follows the particles through Evaluator.UpdateFor — an
	// in-place refit when per-step drift is small, a full rebuild when the
	// drift policy demands it. Under batched evaluation it also carries
	// its interaction-plan cache across steps. posBuf is the reused
	// original-order position snapshot handed to UpdateFor.
	eng    *core.Evaluator
	posBuf []vec.V3

	// lastRebuild is what the most recent evaluatorFor call did — "build"
	// (fresh construction), "refit", or "full" (drift-policy fallback) —
	// feeding the per-step obs time series.
	lastRebuild string

	// accBuf is the reused scratch behind the slice accelerationsFor
	// returns, sized on first use and grown monotonically.
	accBuf []vec.V3

	// Block-timestep state (nil before the first Step). rung, blockAcc, and
	// nextSub are indexed by original particle index: the particle's
	// current rung, the acceleration from its most recent force evaluation
	// (its next opening kick consumes it; valid across substeps because
	// inactive particles do not move, and across steps because nothing
	// moves between a closing kick and the next opening kick), and the
	// substep index at which it is next due. scaleBuf is the per-particle
	// leaf-size scratch of the unsoftened multi-rung timestep criterion.
	rung     []int
	blockAcc []vec.V3
	nextSub  []int
	maskBuf  []bool
	scaleBuf []float64
}

// New validates and wraps the initial state. It rejects an empty system,
// a non-finite position, charge or velocity, a dt that is not finite and
// positive, a force configuration core.Config.Validate rejects (softening
// included), a block eta that is not finite and non-negative, and a block
// rung count outside [0, 16]: each would otherwise fail only at the first
// Step or silently change the run.
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
	if err := cfg.Force.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
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

// evaluatorFor returns the persistent engine positioned at the current
// State: a fresh construction on first use, an incremental
// Evaluator.UpdateFor otherwise. The optional active mask (original
// particle indices; nil = all moved) lets a block substep's refit touch
// only the moved particles' ancestor chains.
func (s *Simulator) evaluatorFor(active []bool) (*core.Evaluator, error) {
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

// Engine returns the persistent evaluator, or nil before the first force
// evaluation. Read-only diagnostic access (refit counters live in the
// evaluator's obs collector; potentials at the current positions can be
// read off it directly).
func (s *Simulator) Engine() *core.Evaluator { return s.eng }

// accelerationsFor computes gravitational accelerations for the active
// target subset (by original particle index; nil = everyone). The returned
// slice is the simulator's reused scratch, valid until the next force
// evaluation. With a mask, only active entries are written — the rest hold
// stale values from earlier evaluations. The engine applies Force.Soften
// itself, in its near-field kernels.
func (s *Simulator) accelerationsFor(active []bool) ([]vec.V3, *core.Stats, error) {
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
	eps2 := s.Cfg.Force.Soften * s.Cfg.Force.Soften
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
