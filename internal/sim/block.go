package sim

import (
	"math"
	"time"

	"treecode/internal/core"
	"treecode/internal/obs"
	"treecode/internal/vec"
)

// This file implements the integrator, hierarchical block timesteps (see
// BlockConfig): one macro Step of size Dt runs 2^(rungs-1) substeps of size
// dt_min, and a rung-r particle takes full kick-drift-kick steps of
// dt_r = Dt/2^r, due every 2^(rungs-1-r) substeps. Between its own steps a
// particle is frozen at the position its last drift jumped to — possibly
// ahead of the substep clock — so every force evaluation sees mixed-age
// sources; the per-evaluation mass-weighted misalignment is accumulated as
// the staleness term of the step telemetry (DESIGN.md §15 folds it into the
// Theorem 2 error accounting). All rungs divide the macro step exactly, so
// every particle is synchronized at macro boundaries. With one rung every
// step is one fully-active substep: the global-dt leapfrog.

// strideOf returns the substep stride of rung r: how many dt_min substeps
// one rung-r step spans.
func (s *Simulator) strideOf(r int) int { return 1 << (s.Cfg.Block.rungs() - 1 - r) }

// scaleAt returns the length scale of particle i's timestep criterion: the
// softening length when positive, else the particle's leaf size captured
// at the last force evaluation.
func (s *Simulator) scaleAt(i int) float64 {
	if eps := s.Cfg.Force.Soften; eps > 0 {
		return eps
	}
	if i < len(s.scaleBuf) {
		return s.scaleBuf[i]
	}
	return 0
}

// captureScales snapshots each particle's leaf size (by original index)
// into scaleBuf for the unsoftened timestep criterion. Softened runs use
// the softening length instead, and one-rung runs never ask, so both skip
// the walk.
func (s *Simulator) captureScales(e *core.Evaluator) {
	if s.Cfg.Block.rungs() == 1 || s.Cfg.Force.Soften > 0 {
		return
	}
	t := e.Tree
	n := len(t.Perm)
	if cap(s.scaleBuf) < n {
		s.scaleBuf = make([]float64, n)
	}
	s.scaleBuf = s.scaleBuf[:n]
	for _, leaf := range t.Leaves() {
		sz := leaf.Size()
		for i := leaf.Start; i < leaf.End; i++ {
			s.scaleBuf[t.Perm[i]] = sz
		}
	}
}

// desiredRung maps an acceleration to a rung through the block criterion
// dt_i = Eta*sqrt(scale/|a_i|): the shallowest power-of-two subdivision of
// the macro step no longer than dt_i, clamped to the configured rung
// range. Degenerate inputs (zero acceleration or scale, non-finite dt)
// land on rung 0, the coarsest.
func (s *Simulator) desiredRung(a vec.V3, scale float64) int {
	an := math.Sqrt(a.Norm2())
	if !(an > 0) || !(scale > 0) {
		return 0
	}
	dtI := s.Cfg.Block.eta() * math.Sqrt(scale/an) //lint:ignore nanflow,mathdomain both operands are guarded positive above, and the !(dtI > 0) check below rejects NaN anyway
	if !(dtI > 0) || dtI >= s.Cfg.Dt {
		return 0
	}
	r := int(math.Ceil(math.Log2(s.Cfg.Dt / dtI))) //lint:ignore mathdomain 0 < dtI < Dt here, so the ratio exceeds 1
	if r < 0 {
		r = 0
	}
	if r > s.Cfg.Block.rungs()-1 {
		r = s.Cfg.Block.rungs() - 1
	}
	return r
}

// Step advances the system by one macro step Dt with the block scheme
// (see BlockConfig); with one rung (MaxRungs 0 or 1) it is the global-dt
// kick-drift-kick leapfrog. Each particle's opening kick reuses the
// acceleration of its previous closing kick, taken at the same position,
// so only the first Step, and a Step after a mass edit (see Simulator),
// pays an extra, all-particle opening evaluation. A non-finite edited mass
// is rejected with an error wrapping points.ErrNonFinite.
//
// When the force configuration carries an obs collector, Step appends one
// StepSample to its per-step time series — the refit kind of the step's
// first evaluation, the evaluation stats, the block counters and the
// collector's own counter deltas — and folds the block counters into its
// metrics. With obs disabled the mark is the inert zero value and no
// telemetry code runs.
func (s *Simulator) Step() error {
	obsCol := s.Cfg.Force.Obs
	mark := obsCol.StepBegin()
	if err := s.syncMasses(); err != nil {
		return err
	}
	rungs := s.Cfg.Block.rungs()
	nsub := s.strideOf(0)
	st := s.State
	n := len(st.Vel)
	dtMin := s.Cfg.Dt / float64(nsub) //lint:ignore nanflow nsub = 2^(rungs-1) >= 1
	kind := ""

	if len(s.rung) != n {
		s.rung = make([]int, n)
		s.blockAcc = nil
	}
	if len(s.nextSub) != n {
		s.nextSub = make([]int, n)
	}
	if cap(s.maskBuf) < n {
		s.maskBuf = make([]bool, n)
	}
	mask := s.maskBuf[:n]

	if s.blockAcc == nil {
		// Opening evaluation of the first step. All particles are
		// synchronized here, so evaluate everyone and seed the rung
		// assignments from the fresh accelerations.
		a, _, err := s.accelerationsFor(nil)
		if err != nil {
			return err
		}
		s.blockAcc = append(s.blockAcc[:0], a...)
		kind = s.lastRebuild
		for i := range s.rung {
			s.rung[i] = s.desiredRung(s.blockAcc[i], s.scaleAt(i))
		}
	}
	// Macro boundaries synchronize every rung (each stride divides nsub),
	// so everyone is due at substep 0.
	for i := range s.nextSub {
		s.nextSub[i] = 0
	}

	var (
		substeps, forceEvals  int64
		promotions, demotions int64
		staleness             float64
		budPred               = make([]float64, rungs)
		budReal               = make([]float64, rungs)
		rungAct               = make([]int64, rungs)
		evalWall              time.Duration
		realTotal             float64
	)

	for sub := 0; sub < nsub; sub++ {
		activeAll := true
		activeCount := 0
		for r := range rungAct {
			rungAct[r] = 0
		}
		for i := 0; i < n; i++ {
			due := s.nextSub[i] == sub
			mask[i] = due
			if due {
				activeCount++
				rungAct[s.rung[i]]++
			} else {
				activeAll = false
			}
		}
		if activeCount == 0 {
			continue // nobody due: an empty slot of the finest-rung grid
		}
		substeps++
		forceEvals += int64(activeCount)

		// Opening kick and drift: each due particle jumps its own full
		// dt_r from the acceleration of its previous evaluation; everyone
		// else stays frozen.
		for i := 0; i < n; i++ {
			if !mask[i] {
				continue
			}
			dtI := float64(s.strideOf(s.rung[i])) * dtMin
			st.Vel[i] = st.Vel[i].Add(s.blockAcc[i].Scale(dtI / 2))
			st.Set.Particles[i].Pos = st.Set.Particles[i].Pos.Add(st.Vel[i].Scale(dtI))
		}

		// A fully-active substep (every substep of a one-rung run) takes
		// the unmasked evaluation path.
		m := mask
		if activeAll {
			m = nil
		}
		var predBefore float64
		if obsCol.Enabled() {
			mt := obsCol.Metrics()
			predBefore = mt.BudgetTotal()
		}
		a2, stats, err := s.accelerationsFor(m)
		if err != nil {
			return err
		}
		if kind == "" {
			kind = s.lastRebuild // opening-eval kind wins for the step sample
		}

		// Closing kick, acceleration cache, and rung reassignment.
		// Promotions (shorter dt) apply immediately — the finer grid always
		// subdivides the completed step's end point. Demotions (longer dt)
		// wait until the particle's position time lands on the coarser
		// rung's grid, so its next activation substep stays consistent.
		for i := 0; i < n; i++ {
			if !mask[i] {
				continue
			}
			cur := s.rung[i]
			strideCur := s.strideOf(cur)
			dtI := float64(strideCur) * dtMin
			st.Vel[i] = st.Vel[i].Add(a2[i].Scale(dtI / 2))
			s.blockAcc[i] = a2[i]
			s.nextSub[i] = sub + strideCur
			want := s.desiredRung(a2[i], s.scaleAt(i))
			if want > cur {
				s.rung[i] = want
				promotions++
			} else if want < cur && s.nextSub[i]%s.strideOf(want) == 0 {
				s.rung[i] = want
				demotions++
			}
		}

		// Telemetry: wall time and realized Theorem 2 budget, the predicted
		// budget delta of this evaluation (from the obs counters), both
		// attributed to rungs proportionally to their share of the active
		// set, and the mixed-age staleness proxy — the mass-weighted
		// positional misalignment sum_j |q_j|·|v_j|·|t_j − t_tick| of the
		// source positions against the substep tick the due targets end on.
		if stats != nil {
			evalWall += stats.EvalTime
			realTotal += stats.BoundSum
		}
		var predDelta float64
		if obsCol.Enabled() {
			mt := obsCol.Metrics()
			predDelta = mt.BudgetTotal() - predBefore
		}
		for r := 0; r < rungs; r++ {
			if rungAct[r] == 0 {
				continue
			}
			f := float64(rungAct[r]) / float64(activeCount)
			budPred[r] += predDelta * f
			if stats != nil {
				budReal[r] += stats.BoundSum * f
			}
		}
		ps := st.Set.Particles
		for j := 0; j < n; j++ {
			if age := s.nextSub[j] - (sub + 1); age != 0 {
				staleness += math.Abs(ps[j].Charge) * math.Sqrt(st.Vel[j].Norm2()) * float64(age) * dtMin
			}
		}
	}

	s.Steps++
	occ := make([]int64, rungs)
	for _, r := range s.rung {
		occ[r]++
	}
	// Block counters first: AddBlock journals rung transitions, and only
	// inside the step window do they carry this step's index.
	obsCol.AddBlock(obs.BlockMetrics{
		Substeps:   substeps,
		ForceEvals: forceEvals,
		Promotions: promotions,
		Demotions:  demotions,
		Staleness:  staleness,
		Occupancy:  occ,
	})
	obsCol.StepEnd(mark, obs.StepInfo{
		RefitKind:      kind,
		N:              n,
		EvalWall:       evalWall,
		BudgetReal:     realTotal,
		Substeps:       substeps,
		ForceEvals:     forceEvals,
		RungOccupancy:  occ,
		RungBudgetPred: budPred,
		RungBudgetReal: budReal,
		Promotions:     promotions,
		Demotions:      demotions,
		Staleness:      staleness,
	})
	return nil
}

// Rungs returns a copy of the current per-particle rung assignments
// (original particle order), or nil before the first Step. A one-rung run
// (MaxRungs 0 or 1) has every particle on rung 0. Diagnostic access for
// drivers reporting rung occupancy.
func (s *Simulator) Rungs() []int {
	if s.blockAcc == nil || len(s.rung) == 0 {
		return nil
	}
	return append([]int(nil), s.rung...)
}
