package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/multipole"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// twoBodyCircular builds a two-body system on a circular orbit about the
// origin: masses m each at +-(r, 0, 0) with speeds for a circular orbit.
func twoBodyCircular() State {
	m := 1.0
	r := 0.5
	// Circular orbit: v^2 / r = G m_other / (2r)^2 => v = sqrt(m/(4*2r))... with
	// separation d = 2r, force per mass = m/d^2 = m/(4r^2); centripetal v^2/r.
	v := math.Sqrt(m / (4 * r))
	set := &points.Set{Particles: []points.Particle{
		{Pos: vec.V3{X: r}, Charge: m},
		{Pos: vec.V3{X: -r}, Charge: m},
	}}
	vel := []vec.V3{{Y: v}, {Y: -v}}
	return State{Set: set, Vel: vel}
}

func TestTwoBodyOrbitConservesEnergy(t *testing.T) {
	st := twoBodyCircular()
	s, err := New(st, Config{Dt: 0.01, Force: core.Config{Degree: 8}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, e0 := s.Energy()
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	_, _, e1 := s.Energy()
	if math.Abs(e1-e0) > 1e-3*math.Abs(e0) {
		t.Fatalf("energy drift %v -> %v", e0, e1)
	}
	// Radius stays near 0.5 for a circular orbit.
	r := s.State.Set.Particles[0].Pos.Norm()
	if math.Abs(r-0.5) > 0.05 {
		t.Fatalf("orbit radius drifted to %v", r)
	}
	if s.Steps != 200 {
		t.Fatalf("Steps = %d", s.Steps)
	}
}

func TestMomentumConservation(t *testing.T) {
	set, _ := points.Generate(points.Plummer, 300, 1)
	vel := make([]vec.V3, set.N())
	s, err := New(State{Set: set, Vel: vel}, Config{
		Dt:    0.001,
		Force: core.Config{Method: core.Adaptive, Degree: 6, Alpha: 0.4, Soften: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	// Starting from rest, the total momentum should stay near zero (exact
	// for direct; approximate for the treecode since forces are not
	// perfectly antisymmetric).
	p := s.Momentum()
	scale := set.TotalAbsCharge() * 0.05 // generous tolerance for treecode asymmetry
	if p.Norm() > scale {
		t.Fatalf("momentum %v too large", p)
	}
}

func TestSoftenedAccelFiniteForCoincident(t *testing.T) {
	set := &points.Set{Particles: []points.Particle{
		{Pos: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, Charge: 1},
		{Pos: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, Charge: 1},
	}}
	s, err := New(State{Set: set, Vel: make([]vec.V3, 2)}, Config{
		Dt: 0.01, Force: core.Config{Degree: 4, Soften: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc, _, err := s.accelerationsFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acc {
		if math.IsNaN(a.Norm()) || math.IsInf(a.Norm(), 0) {
			t.Fatalf("softened acceleration not finite: %v", a)
		}
	}
}

func TestSoftenedMatchesUnsoftenedAtLargeSeparation(t *testing.T) {
	set := &points.Set{Particles: []points.Particle{
		{Pos: vec.V3{X: 0}, Charge: 1},
		{Pos: vec.V3{X: 1}, Charge: 1},
	}}
	mk := func(soften float64) vec.V3 {
		s, err := New(State{Set: set.Clone(), Vel: make([]vec.V3, 2)}, Config{
			Dt: 0.01, Force: core.Config{Degree: 6, Soften: soften},
		})
		if err != nil {
			t.Fatal(err)
		}
		acc, _, err := s.accelerationsFor(nil)
		if err != nil {
			t.Fatal(err)
		}
		return acc[0]
	}
	hard := mk(0)
	soft := mk(1e-6)
	if hard.Sub(soft).Norm() > 1e-6 {
		t.Fatalf("tiny softening changed the force: %v vs %v", hard, soft)
	}
	// The force should be the analytic two-body value.
	if math.Abs(hard.X-1) > 1e-9 || math.Abs(hard.Y) > 1e-12 {
		t.Fatalf("two-body acceleration %v, want (1,0,0)", hard)
	}
}

func TestNewValidation(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 10, 2)
	if _, err := New(State{Set: set, Vel: make([]vec.V3, 5)}, Config{Dt: 0.1}); err == nil {
		t.Error("velocity length mismatch should fail")
	}
	if _, err := New(State{Set: set, Vel: make([]vec.V3, 10)}, Config{Dt: 0}); err == nil {
		t.Error("zero dt should fail")
	}
	if _, err := New(State{Set: &points.Set{}, Vel: nil}, Config{Dt: 0.1}); err == nil {
		t.Error("empty system should fail")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"NaN dt", Config{Dt: nan}},
		{"+Inf dt", Config{Dt: inf}},
		{"alpha 2", Config{Dt: 0.1, Force: core.Config{Alpha: 2}}},
		{"NaN softening", Config{Dt: 0.1, Force: core.Config{Soften: nan}}},
		{"negative softening", Config{Dt: 0.1, Force: core.Config{Soften: -1}}},
		{"+Inf softening", Config{Dt: 0.1, Force: core.Config{Soften: inf}}},
		{"NaN block eta", Config{Dt: 0.1, Block: BlockConfig{MaxRungs: 3, Eta: nan}}},
		{"+Inf block eta", Config{Dt: 0.1, Block: BlockConfig{MaxRungs: 3, Eta: inf}}},
	} {
		if _, err := New(State{Set: set, Vel: make([]vec.V3, 10)}, tc.cfg); err == nil {
			t.Errorf("%s should fail", tc.name)
		}
	}
	for _, v := range []vec.V3{{X: nan}, {Y: inf}, {Z: -inf}} {
		vel := make([]vec.V3, 10)
		vel[3] = v
		if _, err := New(State{Set: set, Vel: vel}, Config{Dt: 0.1}); err == nil {
			t.Errorf("velocity %v should fail", v)
		}
	}
	set.Particles[4].Pos.X = math.NaN()
	if _, err := New(State{Set: set, Vel: make([]vec.V3, 10)}, Config{Dt: 0.1}); !errors.Is(err, points.ErrNonFinite) {
		t.Errorf("NaN position: New returned %v, want ErrNonFinite", err)
	}
}

// cloneState deep-copies a State so two simulators can advance from
// identical initial conditions.
func cloneState(st State) State {
	ps := make([]points.Particle, len(st.Set.Particles))
	copy(ps, st.Set.Particles)
	vel := make([]vec.V3, len(st.Vel))
	copy(vel, st.Vel)
	return State{Set: &points.Set{Particles: ps}, Vel: vel}
}

// gaussianState builds a small random cloud with zero initial velocities.
func gaussianState(t *testing.T, n int) State {
	t.Helper()
	set, err := points.Generate(points.Gaussian, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	return State{Set: set, Vel: make([]vec.V3, set.N())}
}

// countSpans returns how many top-level spans with the given name the
// collector recorded.
func countSpans(col *obs.Collector, name string) int {
	n := 0
	for _, sp := range col.Spans() {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestStepPersistentEngineRefits verifies the simulator's one evaluator
// lifecycle and its acceleration reuse: one construction when the engine
// is born, then one incremental Update per subsequent force evaluation —
// k steps cost 1 build + k refits. Small dt keeps per-step drift far below
// the fallback thresholds, so no Update escalates to a rebuild.
func TestStepPersistentEngineRefits(t *testing.T) {
	col := obs.New()
	st := gaussianState(t, 200)
	s, err := New(st, Config{Dt: 1e-4, Force: core.Config{Degree: 3, Obs: col}})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	if err := s.Run(k); err != nil {
		t.Fatal(err)
	}
	if builds := countSpans(col, "core/build"); builds != 1 {
		t.Fatalf("%d steps cost %d tree builds, want 1", k, builds)
	}
	if refits := countSpans(col, "core/refit"); refits != k {
		t.Fatalf("%d steps cost %d refits, want %d", k, refits, k)
	}
	m := col.Metrics().Refit
	if m.Updates != k || m.Refits != k || m.Rebuilds != 0 {
		t.Fatalf("refit counters = %+v, want %d pure refits", m, k)
	}
	if s.Engine() == nil {
		t.Fatal("persistent engine missing after a run")
	}
}

// TestSoftenedStatsPopulated pins softened runs' instrumentation: a
// softened evaluation goes through the engine like any other, so its
// stats reflect the actual M2P/P2P work and its obs collector receives
// the per-level MAC census.
func TestSoftenedStatsPopulated(t *testing.T) {
	st := gaussianState(t, 400)
	col := obs.New()
	s, err := New(st, Config{
		Dt:    1e-3,
		Force: core.Config{Method: core.Adaptive, Degree: 6, Alpha: 0.5, Soften: 0.05, Obs: col},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := s.accelerationsFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PC == 0 || stats.PP == 0 {
		t.Fatalf("softened stats empty: PC=%d PP=%d", stats.PC, stats.PP)
	}
	if stats.Terms == 0 || stats.MaxDegree == 0 {
		t.Fatalf("softened degree stats empty: Terms=%d MaxDegree=%d", stats.Terms, stats.MaxDegree)
	}
	if stats.BoundSum <= 0 {
		t.Fatalf("softened BoundSum = %v, want > 0", stats.BoundSum)
	}
	if stats.TreeNodes == 0 || stats.TreeLeaves == 0 || stats.TreeHeight == 0 {
		t.Fatalf("softened tree shape stats empty: %+v", stats)
	}
	if stats.EvalTime <= 0 {
		t.Fatalf("softened EvalTime = %v, want > 0", stats.EvalTime)
	}
	m := col.Metrics()
	if len(m.Levels) == 0 || m.Accepts() != stats.PC || m.PPPairs() != stats.PP {
		t.Fatalf("softened census: %d levels, %d accepts, %d pairs; stats PC=%d PP=%d",
			len(m.Levels), m.Accepts(), m.PPPairs(), stats.PC, stats.PP)
	}
}

// referenceSoftenedAccel writes the softened force law out as one serial
// traversal per target, independent of the engine's kernels and traversal
// modes: VisitInteractions' interaction set, a Plummer-softened direct sum
// for every near-field pair, and an unsoftened EvaluateFieldFused with its
// TruncationBoundFast bound for every accepted cluster. It returns accelerations
// in original particle order and the stats an engine evaluation of the
// same tree must reproduce.
func referenceSoftenedAccel(e *core.Evaluator, eps float64) ([]vec.V3, core.Stats) {
	t := e.Tree
	eps2 := eps * eps
	acc := make([]vec.V3, len(t.Pos))
	var st core.Stats
	for i, xi := range t.Pos {
		var a vec.V3
		e.VisitInteractions(xi, i, func(nd *tree.Node, degree int) {
			st.PC++
			st.Terms += multipole.Terms(degree)
			st.MaxDegree = max(st.MaxDegree, degree)
			st.BoundSum += multipole.TruncationBoundFast(nd.Mp.AbsCharge, nd.Mp.Radius, xi.Dist(nd.Mp.Center), degree)
			_, grad := nd.Mp.EvaluateFieldFused(xi, degree)
			a = a.Add(grad) // attractive: a = +grad(phi) with phi = sum m/r
		}, func(j int) {
			d := t.Pos[j].Sub(xi)
			r2 := d.Norm2() + eps2
			if r2 == 0 {
				return
			}
			st.PP++
			inv := 1 / r2
			a = a.Add(d.Scale(t.Q[j] * inv * math.Sqrt(inv)))
		})
		acc[t.Perm[i]] = a
	}
	return acc, st
}

// TestSoftenedForcesMatchReference pins the one force path under
// softening: in both eval modes and at 1 and 2 workers, the simulator's
// accelerations match referenceSoftenedAccel to 1e-12 of the largest
// component (the two differ only in summation order and the algebraic form
// of the pair kernel), its stats count exactly the reference's
// interactions, its accelerations are bitwise independent of the worker
// count, and FieldsFor's active entries stay bitwise equal to Fields.
func TestSoftenedForcesMatchReference(t *testing.T) {
	st := plummerState(t, 1500)
	for _, eps := range []float64{0.005, 0.05} {
		var ref []vec.V3
		var want core.Stats
		var refMax float64
		for _, mode := range []core.EvalMode{core.EvalWalk, core.EvalBatched} {
			var first []vec.V3
			for _, workers := range []int{1, 2} {
				force := core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5,
					Eval: mode, Workers: workers, Soften: eps}
				s, err := New(cloneState(st), Config{Dt: 1e-3, Force: force})
				if err != nil {
					t.Fatal(err)
				}
				acc, got, err := s.accelerationsFor(nil)
				if err != nil {
					t.Fatal(err)
				}
				e := s.Engine()
				if ref == nil {
					ref, want = referenceSoftenedAccel(e, eps)
					for _, a := range ref {
						refMax = max(refMax, math.Abs(a.X), math.Abs(a.Y), math.Abs(a.Z))
					}
				}
				label := fmt.Sprintf("eps=%g %s workers=%d", eps, mode, workers)
				var gap float64
				for i, a := range acc {
					d := a.Sub(ref[i])
					gap = max(gap, math.Abs(d.X), math.Abs(d.Y), math.Abs(d.Z))
				}
				t.Logf("%s: max |a - a_ref| = %.3g of %.3g", label, gap/refMax, refMax)
				if gap > 1e-12*refMax {
					t.Fatalf("%s: accelerations differ from the reference by %.3g (max component %.3g)", label, gap, refMax)
				}
				if got.PC != want.PC || got.PP != want.PP || got.Terms != want.Terms || got.MaxDegree != want.MaxDegree {
					t.Fatalf("%s: stats PC=%d PP=%d Terms=%d MaxDegree=%d, reference %d %d %d %d", label,
						got.PC, got.PP, got.Terms, got.MaxDegree, want.PC, want.PP, want.Terms, want.MaxDegree)
				}
				if rel := math.Abs(got.BoundSum-want.BoundSum) / want.BoundSum; !(rel <= 1e-12) {
					t.Fatalf("%s: BoundSum %v, reference %v (rel %.3g)", label, got.BoundSum, want.BoundSum, rel)
				}
				if first == nil {
					first = append([]vec.V3(nil), acc...)
				} else {
					for i := range acc {
						if acc[i] != first[i] { // worker count must not change a bit
							t.Fatalf("%s: acceleration %d = %v, 1 worker gave %v", label, i, acc[i], first[i])
						}
					}
				}
				active := make([]bool, len(acc))
				for i := range active {
					active[i] = i%3 == 0
				}
				phiA, fieldA, _, err := e.FieldsFor(active)
				if err != nil {
					t.Fatal(err)
				}
				phi, field, _ := e.Fields()
				for i, on := range active {
					if on && (math.Float64bits(phiA[i]) != math.Float64bits(phi[i]) || fieldA[i] != field[i]) { // FieldsFor's contract is bitwise identity with Fields
						t.Fatalf("%s: FieldsFor target %d: %v %v, Fields %v %v", label, i, phiA[i], fieldA[i], phi[i], field[i])
					}
				}
			}
		}
	}
}

// TestAutoMatchesEveryWithinBudget compares whole trajectories between the
// persistent engine and construct-per-call evaluation: both evaluate with
// conservative MACs satisfying the same Theorem 2 budget, so after a few
// steps the positions agree to treecode accuracy (far tighter than the
// integration error, far looser than roundoff).
func TestAutoMatchesEveryWithinBudget(t *testing.T) {
	for _, soften := range []float64{0, 0.02} {
		st := gaussianState(t, 400)
		cfg := Config{
			Dt:    1e-3,
			Force: core.Config{Method: core.Adaptive, Degree: 8, Alpha: 0.4, Soften: soften},
		}
		auto, err := New(cloneState(st), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := auto.Run(5); err != nil {
			t.Fatal(err)
		}
		// The construct-per-call lifecycle the simulator no longer has: a
		// fresh core.New + Fields for every evaluation.
		every := cloneState(st)
		err = kdkSteps(every, cfg.Dt, 5, func() ([]vec.V3, error) {
			e, err := core.New(every.Set, cfg.Force)
			if err != nil {
				return nil, err
			}
			_, field, _ := e.Fields()
			acc := make([]vec.V3, len(field))
			for i, f := range field {
				acc[i] = f.Neg()
			}
			return acc, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var scale float64
		for i := range st.Set.Particles {
			scale = math.Max(scale, every.Set.Particles[i].Pos.Norm())
		}
		for i := range st.Set.Particles {
			d := auto.State.Set.Particles[i].Pos.Sub(every.Set.Particles[i].Pos).Norm()
			if d > 1e-6*scale {
				t.Fatalf("soften=%v: particle %d drifted %.3g between lifecycles", soften, i, d)
			}
		}
	}
}

// TestStepSeriesRecorded pins the per-step time series: every Step with an
// obs collector appends exactly one StepSample carrying the evaluator
// lifecycle kind, the closing kick's evaluation stats, and a predicted
// Theorem 2 budget.
func TestStepSeriesRecorded(t *testing.T) {
	col := obs.New()
	st := gaussianState(t, 200)
	s, err := New(st, Config{Dt: 1e-4, Force: core.Config{Degree: 3, Obs: col}})
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	if err := s.Run(k); err != nil {
		t.Fatal(err)
	}
	samples := col.StepSamples()
	if len(samples) != k {
		t.Fatalf("%d steps produced %d samples", k, len(samples))
	}
	if samples[0].RefitKind != "build" {
		t.Fatalf("first step kind %q, want build", samples[0].RefitKind)
	}
	for i, sm := range samples {
		if sm.Step != int64(i) {
			t.Fatalf("sample %d has step index %d", i, sm.Step)
		}
		if i > 0 && sm.RefitKind != "refit" {
			t.Fatalf("step %d kind %q, want refit", i, sm.RefitKind)
		}
		if sm.WallNS <= 0 || sm.EvalNS <= 0 || sm.WallNS < sm.EvalNS {
			t.Fatalf("step %d timings implausible: %+v", i, sm)
		}
		if sm.BudgetPred <= 0 || sm.BudgetReal <= 0 {
			t.Fatalf("step %d budgets missing: %+v", i, sm)
		}
	}
	roll := col.SeriesRollup()
	if roll.Steps != k || roll.Builds != 1 || roll.Refits != k-1 {
		t.Fatalf("rollup kinds wrong: %+v", roll)
	}
}

// TestStepSeriesJournalsForcedRebuild verifies a drift-policy fallback
// surfaces in both the series (kind "full") and the event journal with a
// named reason.
func TestStepSeriesJournalsForcedRebuild(t *testing.T) {
	col := obs.New()
	st := gaussianState(t, 200)
	// A huge timestep makes most particles migrate, tripping the
	// migrant-fraction threshold on the first Update.
	s, err := New(st, Config{Dt: 5, Force: core.Config{Degree: 3, Obs: col}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	roll := col.SeriesRollup()
	if roll.Rebuilds == 0 {
		t.Fatalf("huge-dt run never fell back to a full rebuild: %+v", roll)
	}
	counts := col.EventCounts()
	if counts[obs.EventRebuildFallback] == 0 {
		t.Fatalf("no rebuild-fallback journal event: %v", counts)
	}
	found := false
	for _, ev := range col.Events() {
		if ev.Kind != obs.EventRebuildFallback {
			continue
		}
		found = true
		switch ev.Reason {
		case "out-of-root", "migrant-fraction", "radius-inflation":
		default:
			t.Fatalf("fallback event has unnamed reason: %+v", ev)
		}
		if ev.Step < 0 {
			t.Fatalf("fallback event not attributed to a step: %+v", ev)
		}
	}
	if !found {
		t.Fatal("rebuild-fallback event evicted unexpectedly")
	}
}

// TestStepNilObsAllocFree pins the disabled-is-free contract on the new
// per-step telemetry: with no collector, the steady-state Step path must
// not allocate on behalf of the time series (StepBegin returns an inert
// value mark and StepEnd returns immediately).
func TestStepNilObsAllocFree(t *testing.T) {
	st := gaussianState(t, 64)
	s, err := New(st, Config{Dt: 1e-6, Force: core.Config{Degree: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(3); err != nil { // warm up engine and buffers
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(10, func() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	// The evaluation itself allocates (acceleration slices, worker state);
	// the telemetry hooks must not add to it. Pin against a generous
	// multiple of the particle count so the bound tracks real regressions
	// (per-step telemetry would add ring and journal entries) without
	// flaking on evaluator-internal noise.
	if base > 64*40 {
		t.Fatalf("nil-obs Step allocates %v objects per run", base)
	}
}

// TestEditedMassReachesForces: a mass edited in State between steps must
// reach the forces. The next Step pushes the masses into the engine's
// charges and recomputes every acceleration, so the accelerations its
// closing kick caches match direct summation with the edited mass, in both
// eval modes; a non-finite edited mass fails the Step. Without the push,
// multiplying one of 200 masses by 100 left accelerations off by over a
// third of the largest one.
func TestEditedMassReachesForces(t *testing.T) {
	for _, mode := range []core.EvalMode{core.EvalWalk, core.EvalBatched} {
		s, err := New(gaussianState(t, 200), Config{Dt: 1e-4,
			Force: core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5, Workers: 2, Eval: mode}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		ps := s.State.Set.Particles
		ps[0].Charge *= 100
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		tr := s.Engine().Tree
		for i, orig := range tr.Perm {
			if math.Float64bits(tr.Q[i]) != math.Float64bits(ps[orig].Charge) {
				t.Fatalf("%s: engine charge of particle %d is %v, mass %v", mode, orig, tr.Q[i], ps[orig].Charge)
			}
		}
		_, field := direct.SelfFields(s.State.Set, 1)
		var worst, largest float64
		for i, f := range field {
			worst = max(worst, s.blockAcc[i].Add(f).Norm()) // acceleration = -field
			largest = max(largest, f.Norm())
		}
		if worst > 1e-2*largest {
			t.Fatalf("%s: accelerations off direct summation by up to %g, largest %g", mode, worst, largest)
		}
		ps[1].Charge = math.NaN()
		if err := s.Step(); !errors.Is(err, points.ErrNonFinite) {
			t.Fatalf("%s: Step with a NaN mass returned %v, want ErrNonFinite", mode, err)
		}
	}
}
