package tree

import (
	"testing"
	"testing/quick"

	"treecode/internal/points"
)

// sameTree reports whether two trees are bitwise identical: census,
// permutation, permuted particle arrays, and every per-node field down to
// the float bits. The parallel build's whole contract is that the worker
// count never shows up in the output, so no tolerances anywhere.
func sameTree(t *testing.T, a, b *Tree) bool {
	t.Helper()
	if a.NNodes != b.NNodes || a.NLeaves != b.NLeaves || a.Height != b.Height || a.LeafCap != b.LeafCap {
		t.Logf("census mismatch: (%d,%d,%d) vs (%d,%d,%d)",
			a.NNodes, a.NLeaves, a.Height, b.NNodes, b.NLeaves, b.Height)
		return false
	}
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			t.Logf("perm[%d]: %d vs %d", i, a.Perm[i], b.Perm[i])
			return false
		}
		if a.Pos[i] != b.Pos[i] || a.Q[i] != b.Q[i] { // bitwise identity is the property under test
			t.Logf("particle %d differs", i)
			return false
		}
	}
	ok := true
	var bn []*Node
	b.Walk(func(n *Node) { bn = append(bn, n) })
	i := 0
	a.Walk(func(x *Node) {
		if !ok {
			return
		}
		y := bn[i]
		i++
		if x.Level != y.Level || x.Start != y.Start || x.End != y.End ||
			len(x.Children) != len(y.Children) || x.Box != y.Box {
			t.Logf("node %d structure differs (level %d start %d)", i-1, x.Level, x.Start)
			ok = false
			return
		}
		if x.Charge != y.Charge || x.AbsCharge != y.AbsCharge || // bitwise identity is the property under test
			x.Center != y.Center || x.Radius != y.Radius ||
			x.Centroid != y.Centroid || x.BRadius != y.BRadius {
			t.Logf("node %d stats differ (level %d start %d): %+v vs %+v", i-1, x.Level, x.Start, *x, *y)
			ok = false
		}
	})
	return ok
}

// TestBuildWorkerInvariance pins the tentpole determinism claim: Build
// produces bitwise identical trees at every worker count.
func TestBuildWorkerInvariance(t *testing.T) {
	for _, dist := range []points.Distribution{points.Uniform, points.Gaussian} {
		set, err := points.GenerateCharged(dist, 5000, 11, 5000, true)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Build(set, Config{LeafCap: 8, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{3, 8} {
			got, err := Build(set, Config{LeafCap: 8, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !sameTree(t, ref, got) {
				t.Fatalf("%s: workers=%d differs from serial build", dist, w)
			}
		}
	}
}

// TestBuildWorkerInvarianceQuick drives the same bitwise identity through
// the adversarial generator (clumps, duplicates, collinear sets, random
// leaf capacities).
func TestBuildWorkerInvarianceQuick(t *testing.T) {
	f := func(in arbitrarySet) bool {
		ref, err := Build(in.set, Config{LeafCap: in.leafCap, Workers: 1})
		if err != nil {
			return false
		}
		for _, w := range []int{3, 8} {
			got, err := Build(in.set, Config{LeafCap: in.leafCap, Workers: w})
			if err != nil || !sameTree(t, ref, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshChargeStats checks the O(nodes) recharge path: refreshed
// Charge/AbsCharge are bitwise invariant across worker counts, agree with
// a per-node rescan up to roundoff, and leave geometry untouched.
func TestRefreshChargeStats(t *testing.T) {
	set, err := points.GenerateCharged(points.Gaussian, 4000, 5, 4000, true)
	if err != nil {
		t.Fatal(err)
	}
	build := func(w int) *Tree {
		tr, err := Build(set, Config{LeafCap: 8, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ref := build(1)
	// New charges: flip signs and scale, applied identically to each tree.
	recharge := func(tr *Tree) {
		for i := range tr.Q {
			tr.Q[i] = -1.5 * tr.Q[i]
		}
	}
	recharge(ref)
	ref.RefreshChargeStats(1)
	for _, w := range []int{3, 8} {
		tr := build(w)
		recharge(tr)
		tr.RefreshChargeStats(w)
		if !sameTree(t, ref, tr) {
			t.Fatalf("workers=%d: refreshed stats differ from serial refresh", w)
		}
	}
	// Against a direct rescan of each node's range (different summation
	// order for internal nodes, so roundoff-tolerant).
	ok := true
	ref.Walk(func(n *Node) {
		var q, absQ float64
		for i := n.Start; i < n.End; i++ {
			q += ref.Q[i]
			a := ref.Q[i]
			if a < 0 {
				a = -a
			}
			absQ += a
		}
		if diff := n.Charge - q; diff > 1e-9 || diff < -1e-9 {
			ok = false
		}
		if diff := n.AbsCharge - absQ; diff > 1e-9 || diff < -1e-9 {
			ok = false
		}
	})
	if !ok {
		t.Fatal("refreshed charge statistics disagree with per-node rescan")
	}
}

// TestLevels checks the level index: every node appears exactly once, on
// its own level's list, Start-ascending within each level.
func TestLevels(t *testing.T) {
	set, err := points.Generate(points.Uniform, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(set, Config{LeafCap: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	levels := tr.Levels()
	if len(levels) != tr.Height+1 {
		t.Fatalf("levels: %d lists for height %d", len(levels), tr.Height)
	}
	total := 0
	for l, nodes := range levels {
		for i, n := range nodes {
			if n.Level != l {
				t.Fatalf("node at level %d filed under %d", n.Level, l)
			}
			if i > 0 && nodes[i-1].Start >= n.Start {
				t.Fatalf("level %d not Start-ascending at %d", l, i)
			}
		}
		total += len(nodes)
	}
	if total != tr.NNodes {
		t.Fatalf("level lists hold %d nodes, tree has %d", total, tr.NNodes)
	}
}

// TestLevelSyncUpOrdering verifies the barrier contract: when visit runs,
// all the node's children have already been visited, and the worker id it
// receives lies in [0, workers).
func TestLevelSyncUpOrdering(t *testing.T) {
	set, err := points.Generate(points.Gaussian, 5000, 9)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(set, Config{LeafCap: 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	visited := make(map[*Node]bool, tr.NNodes)
	var mu chan struct{} // poor man's mutex usable from any worker
	mu = make(chan struct{}, 1)
	mu <- struct{}{}
	bad := 0
	LevelSyncUp(tr, 8, func(n *Node, id int) {
		<-mu
		if id < 0 || id >= 8 {
			bad++
		}
		for _, c := range n.Children {
			if !visited[c] {
				bad++
			}
		}
		visited[n] = true
		mu <- struct{}{}
	})
	if bad != 0 {
		t.Fatalf("%d visits ran before their node's children or with an out-of-range worker id", bad)
	}
	if len(visited) != tr.NNodes {
		t.Fatalf("visited %d of %d nodes", len(visited), tr.NNodes)
	}
}
