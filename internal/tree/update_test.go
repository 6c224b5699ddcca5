package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"treecode/internal/points"
	"treecode/internal/vec"
)

// origPositions returns the tree's current positions in original order —
// the input Update expects.
func origPositions(t *Tree) []vec.V3 {
	pos := make([]vec.V3, len(t.Pos))
	for i, orig := range t.Perm {
		pos[orig] = t.Pos[i]
	}
	return pos
}

// perturb returns the tree's positions in original order after a Gaussian
// step of scale sigma, clamped inside the root cube so no particle escapes
// (escape handling has its own test).
func perturb(t *Tree, rng *rand.Rand, sigma float64) []vec.V3 {
	box := t.Root.Box
	clamp := func(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }
	pos := make([]vec.V3, len(t.Pos))
	for i, orig := range t.Perm {
		p := t.Pos[i]
		p.X = clamp(p.X+sigma*rng.NormFloat64(), box.Lo.X, box.Hi.X)
		p.Y = clamp(p.Y+sigma*rng.NormFloat64(), box.Lo.Y, box.Hi.Y)
		p.Z = clamp(p.Z+sigma*rng.NormFloat64(), box.Lo.Z, box.Hi.Z)
		pos[orig] = p
	}
	return pos
}

func v3Bits(a, b vec.V3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

func f64Bits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// treesIdentical reports whether two trees agree bit for bit: arrays,
// structure, and every per-node statistic.
func treesIdentical(a, b *Tree) bool {
	if len(a.Pos) != len(b.Pos) || a.NNodes != b.NNodes || a.NLeaves != b.NLeaves || a.Height != b.Height {
		return false
	}
	for i := range a.Pos {
		if !v3Bits(a.Pos[i], b.Pos[i]) || !f64Bits(a.Q[i], b.Q[i]) || a.Perm[i] != b.Perm[i] {
			return false
		}
	}
	ok := true
	var rec func(x, y *Node)
	rec = func(x, y *Node) {
		if !ok {
			return
		}
		if x.Start != y.Start || x.End != y.End || x.Level != y.Level || len(x.Children) != len(y.Children) {
			ok = false
			return
		}
		if !v3Bits(x.Center, y.Center) || !v3Bits(x.Centroid, y.Centroid) ||
			!f64Bits(x.Charge, y.Charge) || !f64Bits(x.AbsCharge, y.AbsCharge) ||
			!f64Bits(x.Radius, y.Radius) || !f64Bits(x.BRadius, y.BRadius) {
			ok = false
			return
		}
		for i := range x.Children {
			rec(x.Children[i], y.Children[i])
		}
	}
	rec(a.Root, b.Root)
	return ok
}

// checkTreeInvariants verifies the post-Update structural contract: the
// permutation is a bijection, every particle lies inside its node's box,
// both node spheres contain all their particles (the alpha-criterion's
// only requirement of a refit), children partition parent ranges against
// LeafCap, the census matches the structure, and total charge is
// conserved.
func checkTreeInvariants(t *testing.T, tr *Tree, wantAbsCharge float64) {
	t.Helper()
	n := len(tr.Pos)
	seen := make([]bool, n)
	for _, p := range tr.Perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("Perm is not a bijection at %d", p)
		}
		seen[p] = true
	}
	nodes, leaves, height := 0, 0, 0
	tr.Walk(func(nd *Node) {
		nodes++
		if nd.IsLeaf() {
			leaves++
			if nd.Count() > tr.LeafCap && nd.Level < MaxDepth {
				t.Fatalf("leaf [%d,%d) holds %d > LeafCap %d", nd.Start, nd.End, nd.Count(), tr.LeafCap)
			}
		}
		if nd.Level > height {
			height = nd.Level
		}
		for i := nd.Start; i < nd.End; i++ {
			if !nd.Box.Contains(tr.Pos[i]) {
				t.Fatalf("particle %d escaped node box [%d,%d) at level %d", i, nd.Start, nd.End, nd.Level)
			}
			if d := tr.Pos[i].Dist(nd.Center); d > nd.Radius*(1+1e-9)+1e-12 {
				t.Fatalf("particle %d outside (Center,Radius) sphere: %g > %g", i, d, nd.Radius)
			}
			if d := tr.Pos[i].Dist(nd.Centroid); d > nd.BRadius*(1+1e-9)+1e-12 {
				t.Fatalf("particle %d outside (Centroid,BRadius) sphere: %g > %g", i, d, nd.BRadius)
			}
		}
		if !nd.IsLeaf() {
			at := nd.Start
			for _, c := range nd.Children {
				if c.Start != at || c.Count() == 0 {
					t.Fatalf("children do not partition [%d,%d)", nd.Start, nd.End)
				}
				at = c.End
			}
			if at != nd.End {
				t.Fatalf("children do not cover [%d,%d)", nd.Start, nd.End)
			}
		}
	})
	if nodes != tr.NNodes || leaves != tr.NLeaves || height != tr.Height {
		t.Fatalf("census (%d,%d,%d) disagrees with structure (%d,%d,%d)",
			tr.NNodes, tr.NLeaves, tr.Height, nodes, leaves, height)
	}
	if math.Abs(tr.Root.AbsCharge-wantAbsCharge) > 1e-9*(1+wantAbsCharge) {
		t.Fatalf("total |charge| drifted: %g want %g", tr.Root.AbsCharge, wantAbsCharge)
	}
}

// TestUpdateIdentityBitwise pins the zero-migrant fast path: an Update
// with unchanged positions must leave the tree bit-identical to a fresh
// build followed by RefreshGeometry (the reference refresh — both rescan
// the leaves in tree order), and a second identical Update must change
// nothing, confirming the conservative combine does not compound.
func TestUpdateIdentityBitwise(t *testing.T) {
	set, _ := points.Generate(points.Plummer, 700, 3)
	updated, err := Build(set, Config{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(set, Config{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref.RefreshGeometry(1, nil)

	pos := origPositions(updated)
	st, err := updated.Update(pos, UpdateOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Migrants != 0 || st.Splits != 0 || st.Merges != 0 || st.NeedRebuild {
		t.Fatalf("identity update saw drift: %+v", st)
	}
	if !treesIdentical(updated, ref) {
		t.Fatal("identity Update differs from reference refresh")
	}
	if _, err := updated.Update(pos, UpdateOpts{}); err != nil {
		t.Fatal(err)
	}
	if !treesIdentical(updated, ref) {
		t.Fatal("repeated identity Update is not idempotent")
	}
}

// TestUpdateMigrationInvariants drives real migrations (including splits
// and merges) and checks the full structural contract afterwards.
func TestUpdateMigrationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	set, _ := points.Generate(points.Uniform, 600, 2)
	var want float64
	for _, p := range set.Particles {
		want += math.Abs(p.Charge)
	}
	tr, err := Build(set, Config{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	migrated, restructured := false, false
	// Fractions above 1 disable the migrant threshold so even the large
	// final step exercises re-bucketing instead of bailing out.
	opts := UpdateOpts{MaxMigrantFrac: 2, MaxInflation: 1e9}
	for step, sigma := range []float64{1e-3, 0.02, 0.08} {
		st, err := tr.Update(perturb(tr, rng, sigma), opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.NeedRebuild {
			t.Fatalf("step %d: unexpected rebuild request %+v under permissive thresholds", step, st)
		}
		migrated = migrated || st.Migrants > 0
		restructured = restructured || st.Splits > 0 || st.Merges > 0
		checkTreeInvariants(t, tr, want)
	}
	if !migrated {
		t.Fatal("perturbations never produced a migrant; test is vacuous")
	}
	if !restructured {
		t.Fatal("perturbations never split or merged a leaf; test is vacuous")
	}
}

// TestUpdateWorkerInvariance checks the refit is bitwise identical at any
// worker count, under quick.Check-generated adversarial sets and motions,
// and that the masked geometry refresh matches the full one: after one
// unmasked refit, a subset of particles moves within its leaves, and a
// refit masked to that subset must leave every node bitwise as an unmasked
// refit does, drifts included, at every worker count.
func TestUpdateWorkerInvariance(t *testing.T) {
	f := func(in arbitrarySet, seed int64) bool {
		build := func() *Tree {
			tr, err := Build(in.set, Config{LeafCap: in.leafCap})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		update := func(tr *Tree, pos []vec.V3, w int, active []bool) UpdateStats {
			st, err := tr.Update(pos, UpdateOpts{Workers: w, MaxMigrantFrac: 2, MaxInflation: 1e9, Active: active})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		rng := rand.New(rand.NewSource(seed))
		ref := build()
		pos := perturb(ref, rng, 0.03)
		update(ref, pos, 1, nil)
		for _, w := range []int{3, 8} {
			tr := build()
			update(tr, pos, w, nil)
			if !treesIdentical(ref, tr) {
				return false
			}
		}

		// Move a random subset halfway to its leaf's box center, which
		// keeps every particle inside its leaf.
		moved := origPositions(ref)
		active := make([]bool, len(moved))
		for _, leaf := range ref.Leaves() {
			c := leaf.Box.Center()
			for i := leaf.Start; i < leaf.End; i++ {
				if rng.Intn(2) == 0 {
					active[ref.Perm[i]] = true
					moved[ref.Perm[i]] = ref.Pos[i].Add(c).Scale(0.5)
				}
			}
		}
		for _, w := range []int{1, 3, 8} {
			masked, full := build(), build()
			update(masked, pos, w, nil)
			update(full, pos, w, nil)
			if st := update(masked, moved, w, active); st.Migrants != 0 {
				t.Fatalf("moves inside leaves made %d migrants", st.Migrants)
			}
			update(full, moved, w, nil)
			if !treesIdentical(masked, full) || !driftsIdentical(masked, full) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// driftsIdentical reports whether two trees of the same shape agree bit
// for bit on every node's SrcDrift and TgtDrift.
func driftsIdentical(a, b *Tree) bool {
	ok := true
	var rec func(x, y *Node)
	rec = func(x, y *Node) {
		if !f64Bits(x.SrcDrift, y.SrcDrift) || !f64Bits(x.TgtDrift, y.TgtDrift) {
			ok = false
		}
		for i := range x.Children {
			rec(x.Children[i], y.Children[i])
		}
	}
	rec(a.Root, b.Root)
	return ok
}

// TestUpdateFallbackTriggers exercises the drift policy's rebuild
// recommendations.
func TestUpdateFallbackTriggers(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 400, 5)
	build := func() *Tree {
		tr, err := Build(set, Config{LeafCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// A particle leaving the root cube farther than the cube's side (one
	// unit; the uniform set's root is just under one unit wide) forces a
	// rebuild: two doublings of the root cannot reach it.
	tr := build()
	pos := origPositions(tr)
	esc := tr.Root.Box.Hi.Add(vec.V3{X: 1, Y: 1, Z: 1})
	pos[0] = esc
	st, err := tr.Update(pos, UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.NeedRebuild || st.OutOfRoot != 1 || st.Migrants == 0 {
		t.Fatalf("escape not flagged: %+v", st)
	}

	// A large migrant fraction trips the threshold before any surgery.
	tr = build()
	pos = origPositions(tr)
	rng := rand.New(rand.NewSource(3))
	box := tr.Root.Box
	sz := box.Size()
	for i := range pos {
		if i%2 == 0 {
			pos[i] = vec.V3{
				X: box.Lo.X + rng.Float64()*sz.X,
				Y: box.Lo.Y + rng.Float64()*sz.Y,
				Z: box.Lo.Z + rng.Float64()*sz.Z,
			}
		}
	}
	st, err = tr.Update(pos, UpdateOpts{MaxMigrantFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !st.NeedRebuild {
		t.Fatalf("scramble of half the particles not flagged: %+v", st)
	}
	if st.MaxInflation != 0 {
		t.Fatalf("early bail should skip the refresh, got inflation %v", st.MaxInflation)
	}

	// Length mismatch is an error, not a stat.
	tr = build()
	if _, err := tr.Update(make([]vec.V3, 3), UpdateOpts{}); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

// TestUpdateGrowsRootForNearEscapes: particles that leave the root cube by
// less than its side re-bucket under a grown root instead of forcing a
// rebuild. Escapes on both sides of X take two doublings: the old root
// survives whole, two levels deeper, inside a root that contains every
// escape, and the tree keeps the structural contract. An identity Update
// afterwards refits without growing again.
func TestUpdateGrowsRootForNearEscapes(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 400, 5)
	var want float64
	for _, p := range set.Particles {
		want += math.Abs(p.Charge)
	}
	tr, err := Build(set, Config{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	old := tr.Root
	box := old.Box
	side := box.MaxDim()
	pos := origPositions(tr)
	pos[0].X, pos[0].Z = box.Hi.X+0.3*side, box.Hi.Z+0.5*side
	pos[1].X = box.Lo.X - 0.2*side
	st, err := tr.Update(pos, UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NeedRebuild || !st.RootGrown || st.OutOfRoot != 2 {
		t.Fatalf("near escapes did not grow the root: %+v", st)
	}
	if tr.Root == old || tr.Root.Level != 0 || old.Level != 2 {
		t.Fatalf("root not grown by two levels: new root level %d, old root level %d", tr.Root.Level, old.Level)
	}
	found := false
	tr.Walk(func(n *Node) { found = found || n == old })
	if !found {
		t.Fatal("old root is not a descendant of the grown root")
	}
	if !tr.Root.Box.ContainsBox(box) || !tr.Root.Box.Contains(pos[0]) || !tr.Root.Box.Contains(pos[1]) {
		t.Fatalf("grown root %v misses the old root %v or an escape", tr.Root.Box, box)
	}
	checkTreeInvariants(t, tr, want)

	st, err = tr.Update(origPositions(tr), UpdateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NeedRebuild || st.RootGrown || st.Migrants != 0 {
		t.Fatalf("identity update after growth: %+v", st)
	}
	checkTreeInvariants(t, tr, want)
}

// TestRootBoxContainsExtremes is a regression test for the root-cube
// containment bug: for clouds tiny relative to the magnitude of their
// coordinates, Cube's recentering could exclude an extreme point by one
// ulp while the relative Inflate rounded away entirely, leaving a particle
// outside every box on its path. The union with the exact bound in newTree
// restores containment; sweep the adversarial generator's tight-clump
// regime to hold it.
func TestRootBoxContainsExtremes(t *testing.T) {
	for seed := int64(0); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		set := &points.Set{Particles: make([]points.Particle, n)}
		for i := range set.Particles {
			p := vec.V3{X: 0.5 + 1e-9*rng.NormFloat64(), Y: 0.5, Z: 0.5}
			if rng.Intn(10) == 0 {
				p = vec.V3{X: rng.Float64() * 100}
			}
			set.Particles[i] = points.Particle{Pos: p, Charge: 1}
		}
		tr, err := Build(set, Config{LeafCap: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range tr.Pos {
			if !tr.Root.Box.Contains(p) {
				t.Fatalf("seed %d: particle %d outside root box", seed, i)
			}
		}
	}
}

// TestUpdateRejectsBadActiveMask: an Active mask whose length is not the
// particle count must fail before Update writes anything — Seq and Pos stay
// as they were. A short mask used to panic mid-pass, after Pos had been
// overwritten.
func TestUpdateRejectsBadActiveMask(t *testing.T) {
	set, _ := points.Generate(points.Uniform, 200, 1)
	tr, err := Build(set, Config{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]vec.V3(nil), tr.Pos...)
	pos := perturb(tr, rand.New(rand.NewSource(2)), 0.01)
	for _, n := range []int{10, len(pos) - 1, len(pos) + 1} {
		if _, err := tr.Update(pos, UpdateOpts{Active: make([]bool, n)}); err == nil {
			t.Fatalf("mask of %d entries for %d particles accepted", n, len(pos))
		}
		if tr.Seq() != 0 {
			t.Fatalf("mask of %d entries: Seq went to %d", n, tr.Seq())
		}
		for i := range before {
			if !v3Bits(tr.Pos[i], before[i]) { // nothing may be written before the rejection
				t.Fatalf("mask of %d entries: Pos[%d] overwritten", n, i)
			}
		}
	}
}
