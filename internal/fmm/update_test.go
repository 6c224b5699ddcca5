package fmm

import (
	"math"
	"math/rand"
	"testing"

	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/points"
	"treecode/internal/stats"
	"treecode/internal/vec"
)

// movedPositions returns the evaluator's current positions in original
// order after a Gaussian step of scale sigma clamped inside the root cube.
func movedPositions(e *Evaluator, rng *rand.Rand, sigma float64) []vec.V3 {
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

// TestFMMUpdateRefit drives the FMM's persistent-engine path: an identity
// Update must refit and reproduce the reference refresh (fresh build +
// geometry refresh + upward pass) bit for bit — the build's own stats sit
// ulps away because its fused scans run in pre-sort order — and be exactly
// idempotent, showing the conservative combine does not compound. Refits
// across real motion must stay as accurate against direct summation as a
// fresh build at the same positions — the conservative radii only make
// the separation criterion stricter.
func TestFMMUpdateRefit(t *testing.T) {
	set, _ := points.Generate(points.Gaussian, 1200, 5)
	cfg := Config{Method: core.Adaptive, Degree: 5, Alpha: 0.5, Workers: 2}
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

	same := movedPositions(e, nil, 0)
	kind, err := e.Update(same)
	if err != nil {
		t.Fatal(err)
	}
	if kind != core.RebuildRefit {
		t.Fatalf("identity update took %v path", kind)
	}
	after1, _ := e.Potentials()
	for i := range want {
		if math.Float64bits(after1[i]) != math.Float64bits(want[i]) {
			t.Fatalf("identity refit differs from reference refresh at %d: %v vs %v", i, after1[i], want[i])
		}
	}
	if _, err := e.Update(same); err != nil {
		t.Fatal(err)
	}
	after2, _ := e.Potentials()
	for i := range after1 {
		if math.Float64bits(after2[i]) != math.Float64bits(after1[i]) {
			t.Fatalf("repeated identity refit not idempotent at %d: %v vs %v", i, after2[i], after1[i])
		}
	}

	rng := rand.New(rand.NewSource(13))
	var refitted bool
	for step := 0; step < 2; step++ {
		pos := movedPositions(e, rng, 2e-3)
		kind, err := e.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		if kind != core.RebuildRefit {
			continue
		}
		refitted = true
		got, _ := e.Potentials()
		moved := &points.Set{Particles: make([]points.Particle, len(pos))}
		for i, orig := range e.Tree.Perm {
			moved.Particles[orig] = points.Particle{Pos: pos[orig], Charge: e.Tree.Q[i]}
		}
		want := direct.SelfPotentials(moved, 0)
		fresh, err := New(moved, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := fresh.Potentials()
		reRefit, reFresh := stats.RelErr2(got, want), stats.RelErr2(ref, want)
		if reRefit > 1e-4 {
			t.Fatalf("step %d: refit FMM error %v too large", step, reRefit)
		}
		if reRefit > 5*reFresh+1e-9 {
			t.Fatalf("step %d: refit error %v far above fresh-build error %v", step, reRefit, reFresh)
		}
	}
	if !refitted {
		t.Fatal("no step took the refit path; test is vacuous")
	}
}

// TestFMMUpdateRootGrowth: a particle leaving the root cube by less than its
// side grows the shared engine's root instead of rebuilding, and the FMM
// over the grown tree stays as accurate against direct summation as a
// fresh build at the same positions.
func TestFMMUpdateRootGrowth(t *testing.T) {
	set, _ := points.Generate(points.Gaussian, 1200, 5)
	cfg := Config{Method: core.Adaptive, Degree: 5, Alpha: 0.5, Workers: 2}
	e, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	old := e.Tree.Root
	box := old.Box
	pos := movedPositions(e, nil, 0)
	pos[0].X = box.Hi.X + 0.4*box.MaxDim()
	kind, err := e.Update(pos)
	if err != nil {
		t.Fatal(err)
	}
	if kind != core.RebuildRefit || e.Tree.Root == old {
		t.Fatalf("near escape took %v path, root grown: %v", kind, e.Tree.Root != old)
	}
	got, _ := e.Potentials()
	moved := &points.Set{Particles: make([]points.Particle, len(pos))}
	for i, orig := range e.Tree.Perm {
		moved.Particles[orig] = points.Particle{Pos: pos[orig], Charge: e.Tree.Q[i]}
	}
	want := direct.SelfPotentials(moved, 0)
	fresh, err := New(moved, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := fresh.Potentials()
	reGrown, reFresh := stats.RelErr2(got, want), stats.RelErr2(ref, want)
	if reGrown > 1e-4 || reGrown > 5*reFresh+1e-9 {
		t.Fatalf("grown-root FMM error %v (fresh build %v)", reGrown, reFresh)
	}
}
