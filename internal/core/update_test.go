package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"treecode/internal/points"
	"treecode/internal/vec"
)

// newPositions returns the evaluator's current positions in original order,
// each displaced by a Gaussian step of scale sigma clamped inside the root
// cube (sigma 0 reproduces the current positions exactly).
func newPositions(e *Evaluator, rng *rand.Rand, sigma float64) []vec.V3 {
	t := e.Tree
	box := t.Root.Box
	clamp := func(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }
	pos := make([]vec.V3, len(t.Pos))
	for i, orig := range t.Perm {
		p := t.Pos[i]
		if sigma > 0 {
			p.X = clamp(p.X+sigma*rng.NormFloat64(), box.Lo.X, box.Hi.X)
			p.Y = clamp(p.Y+sigma*rng.NormFloat64(), box.Lo.Y, box.Hi.Y)
			p.Z = clamp(p.Z+sigma*rng.NormFloat64(), box.Lo.Z, box.Hi.Z)
		}
		pos[orig] = p
	}
	return pos
}

// setAt reassembles an original-order particle set from new positions and
// the evaluator's charges — the state a fresh build would see.
func setAt(e *Evaluator, pos []vec.V3) *points.Set {
	ps := make([]points.Particle, len(pos))
	for i, orig := range e.Tree.Perm {
		ps[orig] = points.Particle{Pos: pos[orig], Charge: e.Tree.Q[i]}
	}
	return &points.Set{Particles: ps}
}

func bitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: potential %d differs: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// TestEvaluatorUpdateIdentityBitwise pins the steady-state refit: an
// Update with unchanged positions must produce bit-identical potentials to
// the reference refresh (geometry refresh + upward pass on a fresh build —
// both rescan leaves in tree order, unlike the build's pre-sort scans).
func TestEvaluatorUpdateIdentityBitwise(t *testing.T) {
	set, _ := points.Generate(points.Plummer, 900, 2)
	cfg := Config{Method: Adaptive, Degree: 4, Alpha: 0.5, Workers: 2}
	e, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Tree.RefreshGeometry(ref.Cfg.Workers, nil)
	ref.Upward()
	want, _ := ref.Potentials()

	kind, err := e.Update(newPositions(e, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if kind != RebuildRefit {
		t.Fatalf("identity update took %v path", kind)
	}
	got, _ := e.Potentials()
	bitsEqual(t, got, want, "identity refit")
}

// TestEvaluatorUpdateRefitWithinBound checks Theorem 2 budget transfer
// across a migrating refit in both eval modes: the refit evaluator and a
// fresh build at the same final positions both report per-target bound
// totals, and their potentials must agree within the sum of the two
// budgets (each is within its own budget of the exact potential, and
// ||x||_2 <= ||x||_1). In batched mode each refit after the first also
// revalidates the interaction plans the previous step's evaluation cached.
func TestEvaluatorUpdateRefitWithinBound(t *testing.T) {
	set, _ := points.Generate(points.Plummer, 1200, 4)
	for _, mode := range []EvalMode{EvalWalk, EvalBatched} {
		cfg := Config{Method: Adaptive, Degree: 5, Alpha: 0.5, Workers: 2, Eval: mode}
		e, err := New(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		var refitted bool
		for step := 0; step < 4; step++ {
			// Steps small relative to the dense Plummer core's leaf size, as a
			// real timestep would be: a few percent of particles migrate.
			pos := newPositions(e, rng, 1e-3)
			kind, err := e.Update(pos)
			if err != nil {
				t.Fatal(err)
			}
			if kind != RebuildRefit {
				continue // drift policy rebuilt; nothing to compare
			}
			refitted = true
			phiR, stR := e.Potentials()
			fresh, err := New(setAt(e, pos), cfg)
			if err != nil {
				t.Fatal(err)
			}
			phiF, stF := fresh.Potentials()
			var diff2 float64
			for i := range phiR {
				d := phiR[i] - phiF[i]
				diff2 += d * d
			}
			if diff := math.Sqrt(diff2); diff > stR.BoundSum+stF.BoundSum {
				t.Fatalf("%s step %d: refit vs fresh L2 gap %g exceeds combined budget %g",
					mode, step, diff, stR.BoundSum+stF.BoundSum)
			}
		}
		if !refitted {
			t.Fatalf("%s: no step took the refit path; test is vacuous", mode)
		}
	}
}

// TestEvaluatorUpdateWorkerInvariance checks the refit is bitwise
// deterministic in the worker count: identical engines updated with 1, 3,
// and 8 workers must hold identical expansions, observed through
// single-worker evaluation.
func TestEvaluatorUpdateWorkerInvariance(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 800, 6)
	var ref []float64
	for _, w := range []int{1, 3, 8} {
		e, err := New(set, Config{Method: Adaptive, Degree: 4, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		// Same seed for every worker count: identical motion.
		pos := newPositions(e, rand.New(rand.NewSource(17)), 5e-3)
		kind, err := e.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		if kind != RebuildRefit {
			t.Fatalf("workers=%d: expected a refit, got %v", w, kind)
		}
		phi, _ := e.PotentialsWithWorkers(1)
		if ref == nil {
			ref = phi
			continue
		}
		bitsEqual(t, phi, ref, "worker invariance")
	}
}

// TestEvaluatorUpdateFullRebuildMatchesNew scrambles most particles so the
// drift policy falls back, and checks the fallback is indistinguishable —
// bit for bit — from constructing a new evaluator at the final positions.
func TestEvaluatorUpdateFullRebuildMatchesNew(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 500, 8)
	cfg := Config{Method: Adaptive, Degree: 4, Workers: 2}
	e, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	box := e.Tree.Root.Box
	sz := box.Size()
	pos := newPositions(e, nil, 0)
	for i := range pos {
		if i%2 == 0 {
			pos[i] = vec.V3{
				X: box.Lo.X + rng.Float64()*sz.X,
				Y: box.Lo.Y + rng.Float64()*sz.Y,
				Z: box.Lo.Z + rng.Float64()*sz.Z,
			}
		}
	}
	snapshot := setAt(e, pos)
	kind, err := e.Update(pos)
	if err != nil {
		t.Fatal(err)
	}
	if kind != RebuildFull {
		t.Fatalf("scramble of half the particles refitted (%v); drift policy broken", kind)
	}
	fresh, err := New(snapshot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := e.Potentials()
	want, _ := fresh.Potentials()
	bitsEqual(t, got, want, "fallback rebuild")
}

// TestEvaluatorUpdateSteadyStateAllocs bounds the allocation count of the
// zero-migrant refit: expansion storage, degree maps, leaf lists, and
// per-worker scratch are all reused, so a steady-state Update must stay at
// a small constant — far below anything O(n) or O(nodes).
func TestEvaluatorUpdateSteadyStateAllocs(t *testing.T) {
	set, _ := points.Generate(points.Plummer, 2000, 3)
	e, err := New(set, Config{Method: Adaptive, Degree: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pos := newPositions(e, nil, 0)
	if _, err := e.Update(pos); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.Update(pos); err != nil {
			t.Fatal(err)
		}
	})
	// The remaining allocations are per-level/per-worker scratch (refresh
	// maxima, upward harmonics buffers) — a small constant in n.
	if allocs > 64 {
		t.Fatalf("steady-state Update costs %.0f allocations, want a small constant", allocs)
	}
}

// TestMigratingStepAllocs bounds what one n-body step's maintenance and
// force call allocate once the engine is warm: a refit whose migrants
// leave every leaf in place, then a batched Fields. The plan store's
// realignment reuses the evaluator's leaf list, index map and second plan
// array, and the batch workers' collect stack and plan scratch come from a
// pool, so the step allocates the two output slices and a small fixed
// remainder (stats, scheduler closures), nothing that scales with the
// leaves or the plans. Two particles in different leaves trade places on
// every step, so each Update has two migrants.
func TestMigratingStepAllocs(t *testing.T) {
	set, err := points.Generate(points.Plummer, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(set, Config{Method: Adaptive, Degree: 4, Alpha: 0.5, Eval: EvalBatched, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := e.leaves[0].Start, e.leaves[len(e.leaves)/2].Start
	ia, ib := e.Tree.Perm[a], e.Tree.Perm[b]
	pos := [2][]vec.V3{newPositions(e, nil, 0), newPositions(e, nil, 0)}
	pos[1][ia], pos[1][ib] = pos[0][ib], pos[0][ia]
	step := func(k int) {
		kind, err := e.Update(pos[k%2])
		if err != nil {
			t.Fatal(err)
		}
		if kind != RebuildRefit {
			t.Fatalf("step %d: swapping two particles took the %v path", k, kind)
		}
		e.Fields()
	}
	e.Fields()
	for k := 1; k <= 4; k++ { // warm-up
		step(k)
	}
	leaves := len(e.leaves)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step(5)
	runtime.ReadMemStats(&after)
	if got := e.Tree.Perm[e.leaves[0].Start]; got != ia && got != ib {
		t.Fatalf("no swapped particle in the first leaf after the step")
	}
	if len(e.leaves) != leaves {
		t.Fatalf("the step changed the leaf count %d to %d", leaves, len(e.leaves))
	}
	n := uint64(set.N())
	outputs := n * uint64(unsafe.Sizeof(float64(0))+unsafe.Sizeof(vec.V3{}))
	const fixed = 16 << 10
	got := after.TotalAlloc - before.TotalAlloc
	if got > outputs+fixed {
		t.Fatalf("a migrating step allocates %d B: %d B of outputs and %d B more (bound %d B; %d leaves)",
			got, outputs, got-outputs, fixed, leaves)
	}
	t.Logf("a migrating step allocates %d B: %d B of outputs and %d B more (%d leaves)", got, outputs, got-outputs, leaves)
}

// TestUpdateForRejectsBadActiveMask: UpdateFor inherits tree.Update's
// rejection of a mask whose length is not the particle count, and FieldsFor
// rejects such a mask before any plan is built or repaired, so the engine
// keeps evaluating the previous positions and the next Fields is bitwise
// the one before the calls, in both eval modes.
func TestUpdateForRejectsBadActiveMask(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 200, 1)
	for _, mode := range []EvalMode{EvalWalk, EvalBatched} {
		e, err := New(set, Config{Method: Adaptive, Degree: 4, Alpha: 0.5, Workers: 2, Eval: mode})
		if err != nil {
			t.Fatal(err)
		}
		phi0, field0, _ := e.Fields()
		pos := newPositions(e, rand.New(rand.NewSource(2)), 0.01)
		for _, n := range []int{10, len(pos) - 1, len(pos) + 1} {
			if _, err := e.UpdateFor(pos, make([]bool, n)); err == nil {
				t.Fatalf("%s: UpdateFor accepted a %d-entry mask for %d particles", mode, n, len(pos))
			}
			if _, _, _, err := e.FieldsFor(make([]bool, n)); err == nil {
				t.Fatalf("%s: FieldsFor accepted a %d-entry mask for %d particles", mode, n, len(pos))
			}
		}
		phi, field, _ := e.Fields()
		bitsEqual(t, phi, phi0, mode.String())
		for i := range field0 {
			if field[i] != field0[i] { // the rejected calls must leave the engine untouched
				t.Fatalf("%s: field %d changed to %v from %v", mode, i, field[i], field0[i])
			}
		}
	}
}
