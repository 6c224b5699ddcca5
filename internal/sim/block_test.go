package sim

import (
	"fmt"
	"math"
	"testing"

	"treecode/internal/core"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/vec"
)

// plummerState builds a Plummer sphere at rest: the centrally concentrated
// profile gives a wide acceleration spread, so multi-rung runs actually
// populate several rungs.
func plummerState(t *testing.T, n int) State {
	t.Helper()
	set, err := points.Generate(points.Plummer, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	return State{Set: set, Vel: make([]vec.V3, set.N())}
}

// kdkSteps is the global-dt kick-drift-kick loop Step's one-rung case
// replaced, kept as a reference: it advances st by k steps of dt, taking
// every evaluation's accelerations from accel at st's current positions.
// Like Step, it reuses each closing acceleration as the next opening kick,
// so accel runs k+1 times.
func kdkSteps(st State, dt float64, k int, accel func() ([]vec.V3, error)) error {
	acc, err := accel()
	if err != nil {
		return err
	}
	for step := 0; step < k; step++ {
		for i := range st.Vel {
			st.Vel[i] = st.Vel[i].Add(acc[i].Scale(dt / 2))
			st.Set.Particles[i].Pos = st.Set.Particles[i].Pos.Add(st.Vel[i].Scale(dt))
		}
		if acc, err = accel(); err != nil {
			return err
		}
		for i := range st.Vel {
			st.Vel[i] = st.Vel[i].Add(acc[i].Scale(dt / 2))
		}
	}
	return nil
}

// TestBlockSingleRungBitwiseGlobal pins the block scheme's anchor: with one
// rung (MaxRungs 0 or 1) Step runs one fully-active substep per macro step
// through the same unmasked evaluation calls as kdkSteps on the simulator's
// own engine, so whole trajectories must match it bit for bit — walk and
// batched, softened and not, at a small and a large dt.
func TestBlockSingleRungBitwiseGlobal(t *testing.T) {
	const steps = 6
	for _, mode := range []core.EvalMode{core.EvalWalk, core.EvalBatched} {
		for _, soften := range []float64{0, 0.05} {
			for _, dt := range []float64{1e-3, 1e-2} {
				st := gaussianState(t, 300)
				cfg := Config{Dt: dt, Force: core.Config{Degree: 4, Eval: mode, Workers: 2, Soften: soften}}
				ref, err := New(cloneState(st), cfg)
				if err != nil {
					t.Fatal(err)
				}
				err = kdkSteps(ref.State, dt, steps, func() ([]vec.V3, error) {
					acc, _, err := ref.accelerationsFor(nil)
					return acc, err
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, rungs := range []int{0, 1} {
					bcfg := cfg
					bcfg.Block = BlockConfig{MaxRungs: rungs}
					s, err := New(cloneState(st), bcfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Run(steps); err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s soften=%v dt=%v rungs=%d", mode, soften, dt, rungs)
					for i := range st.Set.Particles {
						gp := ref.State.Set.Particles[i].Pos
						bp := s.State.Set.Particles[i].Pos
						if gp != bp { // the one-rung block scheme must reproduce the global-dt trajectory bitwise
							t.Fatalf("%s: position %d diverged: global %v block %v", label, i, gp, bp)
						}
						if ref.State.Vel[i] != s.State.Vel[i] { // same: the schemes must be the same integrator
							t.Fatalf("%s: velocity %d diverged", label, i)
						}
					}
				}
			}
		}
	}
}

// TestBlockMultiRungReducesEvals runs a softened Plummer sphere with four
// rungs and verifies the point of the scheme: per-particle force
// evaluations drop well below the N x substeps a global run at the finest
// timestep would pay, several rungs are actually occupied, and the
// trajectory stays close to the global-dt reference at dt_min.
func TestBlockMultiRungReducesEvals(t *testing.T) {
	const (
		n     = 800
		rungs = 6
		steps = 2
	)
	st := plummerState(t, n)
	col := obs.New()
	// A small softening keeps the central accelerations steep, so the
	// criterion dt spans several octaves: the outer bulk keeps coarse
	// steps while the core subdivides.
	block, err := New(cloneState(st), Config{
		Dt:    0.01,
		Force: core.Config{Method: core.Adaptive, Degree: 6, Alpha: 0.4, Obs: col, Soften: 1e-3},
		Block: BlockConfig{MaxRungs: rungs, Eta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := block.Run(steps); err != nil {
		t.Fatal(err)
	}
	m := col.Metrics()
	if m.Block.Substeps == 0 || m.Block.ForceEvals == 0 {
		t.Fatalf("block counters empty: %+v", m.Block)
	}
	// The fair baseline: a global-dt run resolving the fastest occupied
	// rung pays one evaluation per particle per non-empty substep.
	global := int64(n) * m.Block.Substeps
	if m.Block.ForceEvals >= global {
		t.Fatalf("block mode evaluated %d forces over %d substeps, no fewer than global %d",
			m.Block.ForceEvals, m.Block.Substeps, global)
	}
	reduction := float64(global) / float64(m.Block.ForceEvals)
	if reduction < 2 {
		t.Fatalf("eval reduction %.2fx too small for a centrally-concentrated profile", reduction)
	}
	occupied := 0
	for _, c := range m.Block.Occupancy {
		if c > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Fatalf("only %d rungs occupied (occupancy %v): rung assignment inert", occupied, m.Block.Occupancy)
	}
	if m.Block.Staleness <= 0 {
		t.Fatalf("multi-rung run recorded no mixed-age staleness")
	}

	// The frozen mixed-age approximation perturbs forces; the trajectory
	// must still track a global-dt run at the finest step to a small
	// fraction of the system scale.
	ref, err := New(cloneState(st), Config{
		Dt:    0.01 / (1 << (rungs - 1)),
		Force: core.Config{Method: core.Adaptive, Degree: 6, Alpha: 0.4, Soften: 1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(steps * (1 << (rungs - 1))); err != nil {
		t.Fatal(err)
	}
	var rms, scale float64
	for i := range st.Set.Particles {
		rms += block.State.Set.Particles[i].Pos.Sub(ref.State.Set.Particles[i].Pos).Norm2()
		scale = math.Max(scale, ref.State.Set.Particles[i].Pos.Norm())
	}
	rms = math.Sqrt(rms / float64(n))
	if rms > 1e-2*scale {
		t.Fatalf("block trajectory drifted rms %.3g vs scale %.3g from the fine global reference", rms, scale)
	}
}

// TestBlockRefitWithinBudget runs an unsoftened multi-rung Plummer sphere
// on one persistent engine in both eval modes, so the batched run takes
// the active-task path and keeps inactive leaves' plans across active-only
// refits. At the final, macro-synchronized positions the engine's
// potentials must agree with a fresh construction within the sum of the
// two Theorem 2 budgets (each is within its own budget of the exact
// potential, and ||x||_2 <= ||x||_1), and FieldsFor must return exactly
// the Fields entries of its active targets. The run must have refitted
// without a rebuild and occupied at least two rungs; otherwise the budget
// check compares a fresh build with itself.
func TestBlockRefitWithinBudget(t *testing.T) {
	for _, mode := range []core.EvalMode{core.EvalWalk, core.EvalBatched} {
		col := obs.New()
		force := core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5, Eval: mode}
		cfg := Config{Dt: 0.002, Force: force, Block: BlockConfig{MaxRungs: 5, Eta: 0.3}}
		cfg.Force.Obs = col
		s, err := New(plummerState(t, 2000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(4); err != nil {
			t.Fatal(err)
		}
		m := col.Metrics()
		if m.Refit.Refits == 0 || m.Refit.Rebuilds != 0 {
			t.Fatalf("%s: %d refits, %d rebuilds; want refits only", mode, m.Refit.Refits, m.Refit.Rebuilds)
		}
		occupied := 0
		for _, c := range m.Block.Occupancy {
			if c > 0 {
				occupied++
			}
		}
		if occupied < 2 {
			t.Fatalf("%s: occupancy %v; want at least two rungs", mode, m.Block.Occupancy)
		}
		if mode == core.EvalBatched && m.Plan.EntriesReused == 0 {
			t.Fatalf("batched run reused no plan entries")
		}

		eng := s.Engine()
		phiR, stR := eng.Potentials()
		fresh, err := core.New(s.State.Set, force)
		if err != nil {
			t.Fatal(err)
		}
		phiF, stF := fresh.Potentials()
		var gap2 float64
		for i := range phiR {
			d := phiR[i] - phiF[i]
			gap2 += d * d
		}
		gap, budget := math.Sqrt(gap2), stR.BoundSum+stF.BoundSum
		t.Logf("%s: %d refits, occupancy %v, %d plan entries reused, gap %.3g, budget %.3g",
			mode, m.Refit.Refits, m.Block.Occupancy, m.Plan.EntriesReused, gap, budget)
		if gap > budget {
			t.Fatalf("%s: refit vs fresh L2 gap %g exceeds combined budget %g", mode, gap, budget)
		}

		// The fine rungs are the targets of a typical substep.
		active := make([]bool, len(phiR))
		for i, r := range s.Rungs() {
			active[i] = r > 0
		}
		phiA, fieldA, _ := eng.FieldsFor(active)
		phi, field, _ := eng.Fields()
		for i, on := range active {
			if on && (math.Float64bits(phiA[i]) != math.Float64bits(phi[i]) || fieldA[i] != field[i]) { // FieldsFor's contract is bitwise identity with Fields
				t.Fatalf("%s: FieldsFor target %d: %v %v, Fields %v %v", mode, i, phiA[i], fieldA[i], phi[i], field[i])
			}
		}
	}
}

// TestBlockStepSeriesAndKind pins the block path's per-step telemetry and
// the opening-eval-kind rule: every macro step appends one sample carrying
// the substep, force-eval, occupancy, and per-rung budget fields; the
// first step reports the fresh "build" of its opening evaluation rather
// than the refit of a later substep. Unsoftened, so the timestep criterion
// exercises the leaf-size scale.
func TestBlockStepSeriesAndKind(t *testing.T) {
	col := obs.New()
	st := plummerState(t, 300)
	s, err := New(st, Config{
		Dt:    0.02,
		Force: core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.4, Obs: col},
		Block: BlockConfig{MaxRungs: 3, Eta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	samples := col.StepSamples()
	if len(samples) != 2 {
		t.Fatalf("2 macro steps produced %d samples", len(samples))
	}
	if samples[0].RefitKind != "build" {
		t.Fatalf("first step kind %q, want build (opening-eval kind wins)", samples[0].RefitKind)
	}
	for i, sm := range samples {
		if sm.Substeps <= 0 || sm.ForceEvals <= 0 {
			t.Fatalf("sample %d missing block counters: %+v", i, sm)
		}
		if len(sm.RungOccupancy) != 3 || len(sm.RungBudgetPred) != 3 || len(sm.RungBudgetReal) != 3 {
			t.Fatalf("sample %d rung vectors sized wrong: %+v", i, sm)
		}
		var occ, pred, real int64
		for r := 0; r < 3; r++ {
			occ += sm.RungOccupancy[r]
			if sm.RungBudgetPred[r] > 0 {
				pred++
			}
			if sm.RungBudgetReal[r] > 0 {
				real++
			}
		}
		if occ != int64(s.State.Set.N()) {
			t.Fatalf("sample %d occupancy sums to %d, want every particle on a rung", i, occ)
		}
		if pred == 0 || real == 0 {
			t.Fatalf("sample %d has no per-rung budget attribution: %+v", i, sm)
		}
	}
	if col.SeriesRollup().ForceEvals.Max <= 0 {
		t.Fatal("rollup missing force-eval aggregate")
	}
}

// TestBlockRungJournal verifies rung transitions surface as coalesced
// journal events, stamped with their step, and block-metric counters
// rather than vanishing into the integrator.
func TestBlockRungJournal(t *testing.T) {
	col := obs.New()
	st := plummerState(t, 400)
	s, err := New(st, Config{
		Dt:    0.04,
		Force: core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.4, Obs: col, Soften: 0.01},
		Block: BlockConfig{MaxRungs: 4, Eta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(4); err != nil {
		t.Fatal(err)
	}
	m := col.Metrics()
	if m.Block.Promotions+m.Block.Demotions == 0 {
		t.Skip("no rung transitions in this configuration; nothing to journal")
	}
	counts := col.EventCounts()
	if counts[obs.EventRungPromote]+counts[obs.EventRungDemote] == 0 {
		t.Fatalf("rung transitions (%d promotions, %d demotions) journaled no events: %v",
			m.Block.Promotions, m.Block.Demotions, counts)
	}
	for _, ev := range col.Events() {
		if (ev.Kind == obs.EventRungPromote || ev.Kind == obs.EventRungDemote) && ev.Step < 0 {
			t.Fatalf("rung event not attributed to a step: %+v", ev)
		}
	}
}

// TestBlockConfigValidation covers the new Config checks.
func TestBlockConfigValidation(t *testing.T) {
	st := gaussianState(t, 10)
	if _, err := New(cloneState(st), Config{Dt: 0.1, Block: BlockConfig{MaxRungs: -1}}); err == nil {
		t.Error("negative rung count should fail")
	}
	if _, err := New(cloneState(st), Config{Dt: 0.1, Block: BlockConfig{MaxRungs: maxBlockRungs + 1}}); err == nil {
		t.Error("oversized rung count should fail")
	}
	if _, err := New(cloneState(st), Config{Dt: 0.1, Block: BlockConfig{MaxRungs: 2, Eta: -0.5}}); err == nil {
		t.Error("negative eta should fail")
	}
}

// TestAccelerationScratchReuse pins the per-call allocation fix: after
// warm-up, repeated force evaluations must reuse the simulator's
// acceleration and harmonics scratch instead of allocating fresh buffers,
// softened or not. The bounds are far below one allocation per particle,
// so a reintroduced
// per-particle or per-call O(n) allocation trips them immediately.
func TestAccelerationScratchReuse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		soften float64
		bound  float64
	}{
		{"unsoftened", 0, 0},
		{"softened", 0.05, 0},
	} {
		st := gaussianState(t, 512)
		s, err := New(st, Config{
			Dt:    1e-6,
			Force: core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.4, Soften: tc.soften},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.accelerationsFor(nil); err != nil { // warm up engine and scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := s.accelerationsFor(nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs per evaluation", tc.name, allocs)
		if allocs > 256 {
			t.Fatalf("%s acceleration path allocates %v objects per call at n=512", tc.name, allocs)
		}
	}
}
