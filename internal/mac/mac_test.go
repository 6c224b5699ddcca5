package mac

import (
	"math"
	"testing"

	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

func buildTree(t *testing.T) *tree.Tree {
	t.Helper()
	set, err := points.Generate(points.Uniform, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Build(set, tree.Config{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAlphaAcceptGuaranteesRatio(t *testing.T) {
	tr := buildTree(t)
	m := Alpha{Alpha: 0.6}
	x := vec.V3{X: 5, Y: 5, Z: 5} // far away: everything accepted
	tr.Walk(func(n *tree.Node) {
		if m.Accept(x, n) {
			r := x.Dist(n.Center)
			if n.Radius > 0.6*r+1e-15 {
				t.Fatalf("accepted node violates a/r <= alpha: a=%v r=%v", n.Radius, r)
			}
		}
	})
	// The root must be accepted from far away.
	if !m.Accept(x, tr.Root) {
		t.Fatal("far point should accept the root")
	}
	// A point inside the root must reject it.
	if m.Accept(tr.Root.Center, tr.Root) {
		t.Fatal("center point should reject the root")
	}
}

func TestAlphaMonotoneInAlpha(t *testing.T) {
	tr := buildTree(t)
	x := vec.V3{X: 1.2, Y: 1.2, Z: 1.2}
	loose := Alpha{Alpha: 0.9}
	tight := Alpha{Alpha: 0.3}
	var nLoose, nTight int
	tr.Walk(func(n *tree.Node) {
		if loose.Accept(x, n) {
			nLoose++
		}
		if tight.Accept(x, n) {
			nTight++
			if !loose.Accept(x, n) {
				t.Fatal("tight acceptance must imply loose acceptance")
			}
		}
	})
	if nTight >= nLoose {
		t.Errorf("tighter alpha should accept fewer nodes: %d vs %d", nTight, nLoose)
	}
}

func TestBoxAlphaImpliesRadiusAlpha(t *testing.T) {
	tr := buildTree(t)
	x := vec.V3{X: 2, Y: 0.3, Z: 0.4}
	box := BoxAlpha{Alpha: 0.5}
	// s/r <= alpha and a <= s*sqrt(3)/2 imply a/r <= alpha*sqrt(3)/2...
	// but only when the expansion center is the box center. With the charge
	// center, a <= s*sqrt(3) holds always (opposite corners), so check that.
	tr.Walk(func(n *tree.Node) {
		if box.Accept(x, n) {
			r := x.Dist(n.Center)
			if n.Radius/r > 0.5*math.Sqrt(3)+1e-12 {
				t.Fatalf("box criterion failed to bound radius ratio: %v", n.Radius/r)
			}
		}
	})
}

func TestMinDistConservative(t *testing.T) {
	tr := buildTree(t)
	x := vec.V3{X: 1.5, Y: 1.5, Z: 1.5}
	md := MinDist{Alpha: 0.7}
	al := Alpha{Alpha: 0.7}
	tr.Walk(func(n *tree.Node) {
		if md.Accept(x, n) {
			// The half-diagonal bounds the radius about the box center; the
			// charge center only helps, so Alpha with the same parameter
			// accepts whenever... not strictly - centers differ. Check the
			// geometric guarantee instead: all particles within alpha*r of
			// the box center.
			r := x.Dist(n.Box.Center())
			for i := n.Start; i < n.End; i++ {
				if tr.Pos[i].Dist(n.Box.Center()) > 0.7*r+1e-12 {
					t.Fatal("MinDist guarantee violated")
				}
			}
		}
	})
	_ = al
}

func TestStrings(t *testing.T) {
	for _, m := range []MAC{Alpha{0.5}, BoxAlpha{0.5}, MinDist{0.5}} {
		if m.String() == "" {
			t.Error("empty MAC description")
		}
	}
}

// TestSphereTestsConservative is the safety property the dual-tree
// traversal relies on: for every node and a grid of target spheres,
// AcceptSphere implies per-point Accept and RejectSphere implies per-point
// rejection for sampled points of the sphere (center, axis extremes, and
// points toward/away from the node).
func TestSphereTestsConservative(t *testing.T) {
	tr := buildTree(t)
	macs := []MAC{Alpha{0.5}, Alpha{0.9}, BoxAlpha{0.6}, MinDist{0.7}}
	centers := []vec.V3{
		{X: 0.5, Y: 0.5, Z: 0.5},
		{X: 1.5, Y: 0.2, Z: 0.9},
		{X: -0.3, Y: 0.4, Z: 0.1},
	}
	radii := []float64{0, 0.01, 0.1, 0.5}
	for _, m := range macs {
		for _, c := range centers {
			for _, rho := range radii {
				tr.Walk(func(n *tree.Node) {
					acc := m.AcceptSphere(c, rho, n)
					rej := m.RejectSphere(c, rho, n)
					if acc && rej {
						t.Fatalf("%s: sphere (%v, %g) both accepts and rejects node at level %d", m, c, rho, n.Level)
					}
					if !acc && !rej {
						return // refinement band: no whole-sphere claim
					}
					// Sample the sphere: center, six axis extremes, and the
					// extremes along the line to both reference centers.
					samples := []vec.V3{c,
						c.Add(vec.V3{X: rho}), c.Add(vec.V3{X: -rho}),
						c.Add(vec.V3{Y: rho}), c.Add(vec.V3{Y: -rho}),
						c.Add(vec.V3{Z: rho}), c.Add(vec.V3{Z: -rho}),
					}
					for _, ref := range []vec.V3{n.Center, n.Box.Center()} {
						d := ref.Sub(c)
						if nrm := d.Norm(); nrm > 0 {
							u := d.Scale(rho / nrm)
							samples = append(samples, c.Add(u), c.Sub(u))
						}
					}
					for _, x := range samples {
						if acc && !m.Accept(x, n) {
							t.Fatalf("%s: AcceptSphere(%v, %g) but point %v rejects node at level %d", m, c, rho, x, n.Level)
						}
						if rej && m.Accept(x, n) {
							t.Fatalf("%s: RejectSphere(%v, %g) but point %v accepts node at level %d", m, c, rho, x, n.Level)
						}
					}
				})
			}
		}
	}
}

// TestSphereZeroRadiusMatchesPointTest checks that a zero-radius sphere
// collapses to the point criterion outside the degenerate band: when either
// whole-sphere test fires it must agree with Accept.
func TestSphereZeroRadiusMatchesPointTest(t *testing.T) {
	tr := buildTree(t)
	m := Alpha{0.5}
	x := vec.V3{X: 1.1, Y: 0.7, Z: 0.3}
	tr.Walk(func(n *tree.Node) {
		point := m.Accept(x, n)
		if m.AcceptSphere(x, 0, n) != point && m.AcceptSphere(x, 0, n) {
			t.Fatalf("zero-radius AcceptSphere disagrees with Accept at level %d", n.Level)
		}
		if m.RejectSphere(x, 0, n) && point {
			t.Fatalf("zero-radius RejectSphere disagrees with Accept at level %d", n.Level)
		}
	})
}

func TestZeroDistanceRejected(t *testing.T) {
	set := &points.Set{Particles: []points.Particle{{Pos: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, Charge: 1}}}
	tr, _ := tree.Build(set, tree.Config{})
	n := tr.Root
	for _, m := range []MAC{Alpha{0.9}, BoxAlpha{0.9}} {
		if m.Accept(n.Center, n) {
			t.Errorf("%s accepted a zero-distance interaction", m)
		}
	}
}

// TestSphereSlackSignsMatchBooleans pins the contract the plan cache builds
// on: for every node and target sphere — including spheres that swallow the
// node's reference point — the slack signs reproduce the boolean sphere
// tests exactly, and both margins stay finite. A non-finite accept margin
// would lose the distance to a band-to-accept flip, letting geometric drift
// silently change a cached classification.
func TestSphereSlackSignsMatchBooleans(t *testing.T) {
	tr := buildTree(t)
	macs := []MAC{Alpha{0.5}, Alpha{0.9}, BoxAlpha{0.6}, MinDist{0.7}}
	centers := []vec.V3{
		{X: 0.5, Y: 0.5, Z: 0.5},
		{X: 1.5, Y: 0.2, Z: 0.9},
		{X: -0.3, Y: 0.4, Z: 0.1},
	}
	radii := []float64{0, 0.01, 0.1, 0.5, 4} // 4 swallows the whole tree: r - rho < 0 everywhere
	var overlaps int
	for _, m := range macs {
		for _, c := range centers {
			for _, rho := range radii {
				tr.Walk(func(n *tree.Node) {
					acc, rej := m.SphereSlacks(c, rho, n)
					if math.IsInf(acc, 0) || math.IsInf(rej, 0) || math.IsNaN(acc) || math.IsNaN(rej) {
						t.Fatalf("%s: non-finite slacks (%g, %g) for sphere (%v, %g) at level %d", m, acc, rej, c, rho, n.Level)
					}
					if (acc >= 0) != m.AcceptSphere(c, rho, n) {
						t.Fatalf("%s: accept slack %g sign disagrees with AcceptSphere for sphere (%v, %g) at level %d", m, acc, c, rho, n.Level)
					}
					if (rej > 0) != m.RejectSphere(c, rho, n) {
						t.Fatalf("%s: reject slack %g sign disagrees with RejectSphere for sphere (%v, %g) at level %d", m, rej, c, rho, n.Level)
					}
					if c.Dist(n.Center) <= rho {
						overlaps++
						if acc >= 0 {
							t.Fatalf("%s: overlapping sphere (%v, %g) has nonnegative accept slack %g at level %d", m, c, rho, acc, n.Level)
						}
					}
				})
			}
		}
	}
	if overlaps == 0 {
		t.Fatal("no overlapping sphere cases exercised; widen the radius grid")
	}
}
