package tree

import (
	"errors"
	"math"
	"testing"

	"treecode/internal/points"
	"treecode/internal/vec"
)

func buildUniform(t *testing.T, n, leafCap int) (*points.Set, *Tree) {
	t.Helper()
	set, err := points.Generate(points.Uniform, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(set, Config{LeafCap: leafCap})
	if err != nil {
		t.Fatal(err)
	}
	return set, tr
}

func TestBuildInvariants(t *testing.T) {
	set, tr := buildUniform(t, 3000, 8)

	// Every particle appears exactly once in the permutation.
	seen := make([]bool, set.N())
	for _, p := range tr.Perm {
		if seen[p] {
			t.Fatal("permutation repeats an index")
		}
		seen[p] = true
	}
	// Permuted arrays agree with originals.
	for i, orig := range tr.Perm {
		if tr.Pos[i] != set.Particles[orig].Pos || tr.Q[i] != set.Particles[orig].Charge {
			t.Fatalf("permuted particle %d mismatches original %d", i, orig)
		}
	}

	nodes, leaves := 0, 0
	tr.Walk(func(n *Node) {
		nodes++
		if n.IsLeaf() {
			leaves++
			if n.Count() > tr.LeafCap && n.Level < MaxDepth {
				t.Fatalf("leaf with %d particles exceeds cap %d", n.Count(), tr.LeafCap)
			}
		}
		// Particles in range must lie inside the node's box.
		for i := n.Start; i < n.End; i++ {
			if !n.Box.Contains(tr.Pos[i]) {
				t.Fatalf("particle %d escapes its node box", i)
			}
		}
		// Children partition the parent's range.
		if !n.IsLeaf() {
			at := n.Start
			for _, c := range n.Children {
				if c.Start != at {
					t.Fatal("children do not partition parent range contiguously")
				}
				if c.Level != n.Level+1 {
					t.Fatal("child level wrong")
				}
				if c.Count() == 0 {
					t.Fatal("empty child stored")
				}
				at = c.End
			}
			if at != n.End {
				t.Fatal("children ranges do not cover parent")
			}
		}
	})
	if nodes != tr.NNodes || leaves != tr.NLeaves {
		t.Fatalf("node accounting: walked %d/%d, recorded %d/%d", nodes, leaves, tr.NNodes, tr.NLeaves)
	}
	if tr.Root.Count() != set.N() {
		t.Fatal("root does not cover all particles")
	}
}

func TestNodeStats(t *testing.T) {
	_, tr := buildUniform(t, 2000, 16)
	tr.Walk(func(n *Node) {
		// Radius covers all particles.
		for i := n.Start; i < n.End; i++ {
			if d := tr.Pos[i].Dist(n.Center); d > n.Radius*(1+1e-12)+1e-15 {
				t.Fatalf("particle at distance %v > radius %v", d, n.Radius)
			}
		}
		// Abs charge adds up.
		var a, q float64
		for i := n.Start; i < n.End; i++ {
			a += math.Abs(tr.Q[i])
			q += tr.Q[i]
		}
		if math.Abs(a-n.AbsCharge) > 1e-12*(1+a) || math.Abs(q-n.Charge) > 1e-12*(1+math.Abs(q)) {
			t.Fatalf("charge stats wrong: %v/%v vs %v/%v", n.AbsCharge, n.Charge, a, q)
		}
	})
}

// TestGeometricBoundingSphere checks the target-side sphere used by the
// leaf-batched evaluator: every contained particle lies within BRadius of
// Centroid, and the sphere is charge-independent.
func TestGeometricBoundingSphere(t *testing.T) {
	set, tr := buildUniform(t, 2000, 16)
	tr.Walk(func(n *Node) {
		for i := n.Start; i < n.End; i++ {
			if d := tr.Pos[i].Dist(n.Centroid); d > n.BRadius*(1+1e-12)+1e-15 {
				t.Fatalf("particle at distance %v > bounding radius %v", d, n.BRadius)
			}
		}
		if !n.Box.Contains(n.Centroid) {
			t.Fatalf("centroid %v outside box at level %d", n.Centroid, n.Level)
		}
	})
	// Skewed charges must not move the geometric sphere.
	skew := set.Clone()
	for i := range skew.Particles {
		skew.Particles[i].Charge *= float64(1 + i%17*1000)
	}
	tr2, err := Build(skew, Config{LeafCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	var a, b []float64
	tr.Walk(func(n *Node) { a = append(a, n.BRadius) })
	tr2.Walk(func(n *Node) { b = append(b, n.BRadius) })
	if len(a) != len(b) {
		t.Fatalf("tree shapes differ: %d vs %d nodes", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("BRadius depends on charges: node %d %v vs %v", i, a[i], b[i])
		}
	}
}

func TestParentChildCharges(t *testing.T) {
	_, tr := buildUniform(t, 1500, 8)
	tr.Walk(func(n *Node) {
		if n.IsLeaf() {
			return
		}
		var a float64
		for _, c := range n.Children {
			a += c.AbsCharge
		}
		if math.Abs(a-n.AbsCharge) > 1e-12*(1+a) {
			t.Fatalf("children charges %v != parent %v", a, n.AbsCharge)
		}
	})
}

func TestBoxSizesHalve(t *testing.T) {
	_, tr := buildUniform(t, 4000, 4)
	rootSize := tr.Root.Size()
	tr.Walk(func(n *Node) {
		want := rootSize / math.Pow(2, float64(n.Level))
		if math.Abs(n.Size()-want) > 1e-9*want {
			t.Fatalf("level %d box size %v, want %v", n.Level, n.Size(), want)
		}
	})
}

func TestLeafCapControlsHeight(t *testing.T) {
	_, shallow := buildUniform(t, 4000, 64)
	_, deep := buildUniform(t, 4000, 2)
	if deep.Height <= shallow.Height {
		t.Errorf("smaller leaf cap should build a deeper tree: %d vs %d", deep.Height, shallow.Height)
	}
}

func TestDuplicatePointsTerminate(t *testing.T) {
	set := &points.Set{}
	for i := 0; i < 100; i++ {
		set.Particles = append(set.Particles, points.Particle{Pos: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, Charge: 1})
	}
	tr, err := Build(set, Config{LeafCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height > MaxDepth {
		t.Fatalf("height %d exceeds MaxDepth", tr.Height)
	}
	if tr.Root.Count() != 100 {
		t.Fatal("lost particles")
	}
}

func TestEmptySetFails(t *testing.T) {
	if _, err := Build(&points.Set{}, Config{}); err == nil {
		t.Fatal("empty set should fail")
	}
	if _, err := Build(nil, Config{}); err == nil {
		t.Fatal("nil set should fail")
	}
}

// TestBuildRejectsNonFinite: a NaN or infinite coordinate or charge would
// poison the root box and every charge moment above it, so Build refuses
// the set with points.ErrNonFinite instead of returning a garbage tree.
func TestBuildRejectsNonFinite(t *testing.T) {
	for name, corrupt := range map[string]func(*points.Particle){
		"nan x":      func(p *points.Particle) { p.Pos.X = math.NaN() },
		"+inf y":     func(p *points.Particle) { p.Pos.Y = math.Inf(1) },
		"-inf z":     func(p *points.Particle) { p.Pos.Z = math.Inf(-1) },
		"nan charge": func(p *points.Particle) { p.Charge = math.NaN() },
		"inf charge": func(p *points.Particle) { p.Charge = math.Inf(-1) },
	} {
		set, _ := points.Generate(points.Uniform, 200, 3)
		corrupt(&set.Particles[37])
		if _, err := Build(set, Config{}); !errors.Is(err, points.ErrNonFinite) {
			t.Errorf("%s: Build returned %v, want ErrNonFinite", name, err)
		}
	}
}

func TestSingleParticle(t *testing.T) {
	set := &points.Set{Particles: []points.Particle{{Pos: vec.V3{X: 0.1, Y: 0.2, Z: 0.3}, Charge: 2}}}
	tr, err := Build(set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root.IsLeaf() || tr.Root.Count() != 1 {
		t.Fatal("single particle should be a leaf root")
	}
	if tr.Root.Center != set.Particles[0].Pos {
		t.Fatal("center should be the particle")
	}
	if tr.Root.Radius != 0 {
		t.Fatal("radius should be zero")
	}
}

func TestZeroChargeCluster(t *testing.T) {
	set := &points.Set{Particles: []points.Particle{
		{Pos: vec.V3{X: 0.1, Y: 0.1, Z: 0.1}, Charge: 0},
		{Pos: vec.V3{X: 0.9, Y: 0.9, Z: 0.9}, Charge: 0},
	}}
	tr, err := Build(set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Center != tr.Root.Box.Center() {
		t.Fatal("zero-charge cluster should center on the box")
	}
}

func TestLeavesAndLevels(t *testing.T) {
	_, tr := buildUniform(t, 1000, 8)
	leaves := tr.Leaves()
	if len(leaves) != tr.NLeaves {
		t.Fatalf("Leaves() returned %d, want %d", len(leaves), tr.NLeaves)
	}
	var total int
	for _, l := range leaves {
		total += l.Count()
	}
	if total != 1000 {
		t.Fatalf("leaves cover %d particles", total)
	}
	counts := tr.LevelsWithNodes()
	if counts[0] != 1 {
		t.Fatal("exactly one root expected")
	}
	var sum int
	for _, c := range counts {
		sum += c
	}
	if sum != tr.NNodes {
		t.Fatal("level counts do not sum to node count")
	}
}

func TestMinLeafStats(t *testing.T) {
	_, tr := buildUniform(t, 1000, 8)
	a, s, ok := tr.MinLeafStats()
	if !ok || a <= 0 || s <= 0 {
		t.Fatalf("MinLeafStats = %v %v %v", a, s, ok)
	}
	// No nonempty leaf has smaller charge.
	tr.Walk(func(n *Node) {
		if n.IsLeaf() && n.AbsCharge > 0 && n.AbsCharge < a {
			t.Fatal("MinLeafStats missed a smaller cluster")
		}
	})
	// All-zero charges.
	set := &points.Set{Particles: []points.Particle{{Pos: vec.V3{X: 0.5}, Charge: 0}}}
	tz, _ := Build(set, Config{})
	if _, _, ok := tz.MinLeafStats(); ok {
		t.Fatal("zero-charge tree should report !ok")
	}
}

func BenchmarkBuild10k(b *testing.B) {
	set, _ := points.Generate(points.Uniform, 10000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(set, Config{LeafCap: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
