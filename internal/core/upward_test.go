package core

import (
	"math"
	"math/cmplx"
	"testing"

	"treecode/internal/harmonics"
	"treecode/internal/mesh"
	"treecode/internal/multipole"
	"treecode/internal/points"
	"treecode/internal/quadrature"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// sphereGaussPoints returns the Gauss points of a subdivided unit sphere
// with their quadrature weights as charges: the source set the BEM operator
// builds its treecode over.
func sphereGaussPoints(t *testing.T, subdiv, quadPts int) *points.Set {
	t.Helper()
	m := mesh.Sphere(subdiv, 1, vec.V3{X: 0.6, Y: 0.9, Z: 0.7})
	rule, err := quadrature.Rule(quadPts)
	if err != nil {
		t.Fatal(err)
	}
	set := &points.Set{}
	for tri := range m.Tris {
		a, b, c := m.TriVerts(tri)
		area := m.Area(tri)
		for _, p := range rule {
			set.Particles = append(set.Particles, points.Particle{Pos: p.Map(a, b, c), Charge: p.W * area})
		}
	}
	return set
}

// upwardCases are the trees the upward-plan tests run on: an adaptive
// Gaussian, the BEM sphere's Gauss points (adaptive, as the BEM solve
// configures them) and a fixed-degree uniform cloud.
func upwardCases(t *testing.T) []struct {
	name string
	set  *points.Set
	cfg  Config
} {
	gauss, err := points.Generate(points.Gaussian, 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := points.GenerateCharged(points.Uniform, 3000, 6, 3000, true)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		set  *points.Set
		cfg  Config
	}{
		{"adaptive gaussian", gauss, Config{Method: Adaptive, Degree: 4, Alpha: 0.5}},
		{"bem sphere", sphereGaussPoints(t, 2, 6), Config{Method: Adaptive, Degree: 6, Alpha: 0.4}},
		{"uniform p8", uni, Config{Method: Original, Degree: 8, Alpha: 0.5}},
	}
}

// coefficientMismatch compares n's expansion with a direct P2M of n's own
// particle range at its carried degree. Row n of a cluster with absolute
// charge A and radius a is bounded by A a^n (Theorem 1's coefficient
// bound), so each row must agree to 1e-12 of that scale. It returns the
// first row that does not, or -1.
func coefficientMismatch(tr *tree.Tree, n *tree.Node) int {
	ref := multipole.P2M(tr.Pos[n.Start:n.End], tr.Q[n.Start:n.End], n.Center, n.Mp.Degree)
	for row := 0; row <= n.Mp.Degree; row++ {
		tol := 1e-12 * n.Mp.AbsCharge * math.Pow(n.Mp.Radius, float64(row))
		for m := 0; m <= row; m++ {
			i := harmonics.Idx(row, m)
			if !(cmplx.Abs(n.Mp.Coeff[i]-ref.Coeff[i]) <= tol) {
				return row
			}
		}
	}
	return -1
}

// opCount is a plan's operation count under the engine's cost model:
// harmonics.Len(carry) per particle of a P2M-built node and TranslateOps
// per child of an M2M-built one.
func opCount(tr *tree.Tree, carry func(*tree.Node) int, p2m func(*tree.Node) bool) int64 {
	var cost int64
	tr.Walk(func(n *tree.Node) {
		if p2m(n) {
			cost += int64(n.Count()) * int64(harmonics.Len(carry(n)))
		} else {
			cost += int64(len(n.Children)) * multipole.TranslateOps(carry(n))
		}
	})
	return cost
}

// TestUpwardPlanExpansionsExact: whichever way the plan builds a node, its
// expansion is the P2M of its own range at its carried degree, to
// roundoff; its cluster statistics are the M2M-derived ones bit for bit;
// every carried degree covers the node's own and its M2M parent's; and
// the children of a P2M-built node carry exactly their own degree.
func TestUpwardPlanExpansionsExact(t *testing.T) {
	for _, c := range upwardCases(t) {
		e := mustEval(t, c.set, c.cfg)
		tr := e.Tree
		var p2mInternal int
		tr.Walk(func(n *tree.Node) {
			st := e.up[n]
			if n.Mp.Degree != st.carry || len(n.Mp.Coeff) != harmonics.Len(st.carry) || st.carry < n.Degree {
				t.Fatalf("%s: node at level %d start %d has degree %d (%d coefficients), carry %d, own degree %d",
					c.name, n.Level, n.Start, n.Mp.Degree, len(n.Mp.Coeff), st.carry, n.Degree)
			}
			if n.IsLeaf() && !st.p2m {
				t.Fatalf("%s: leaf at level %d start %d is not P2M-built", c.name, n.Level, n.Start)
			}
			if row := coefficientMismatch(tr, n); row >= 0 {
				t.Fatalf("%s: node at level %d start %d (P2M-built %v, degree %d) differs from the P2M of its range in row %d",
					c.name, n.Level, n.Start, st.p2m, st.carry, row)
			}
			if n.IsLeaf() {
				return
			}
			if st.p2m {
				p2mInternal++
			}
			stats := multipole.NewExpansion(n.Center, 0)
			for _, ch := range n.Children {
				stats.AccumulateTranslatedBuf(ch.Mp, nil)
				want := ch.Degree
				if !st.p2m {
					want = max(ch.Degree, st.carry)
				}
				if e.up[ch].carry != want {
					t.Fatalf("%s: child of a node built by P2M=%v at degree %d carries %d, want %d",
						c.name, st.p2m, st.carry, e.up[ch].carry, want)
				}
			}
			if n.Radius < stats.Radius {
				stats.Radius = n.Radius
			}
			if n.Mp.AbsCharge != stats.AbsCharge || n.Mp.Radius != stats.Radius { // the statistics must be the M2M-derived values to the bit
				t.Fatalf("%s: node at level %d start %d has A %v a %v, M2M derives %v %v",
					c.name, n.Level, n.Start, n.Mp.AbsCharge, n.Mp.Radius, stats.AbsCharge, stats.Radius)
			}
		})
		if p2mInternal == 0 {
			t.Errorf("%s: the plan builds no internal node by P2M", c.name)
		}
	}
}

// TestUpwardPlanNoDearerThanCarry: the plan's operation count is no higher
// than the all-carry plan's (every internal node by M2M, carried at the
// largest degree of its ancestors and itself), and two constructions over
// the same input choose the same plan.
func TestUpwardPlanNoDearerThanCarry(t *testing.T) {
	for _, c := range upwardCases(t) {
		e := mustEval(t, c.set, c.cfg)
		carryAll := make(map[*tree.Node]int, e.Tree.NNodes)
		var down func(n *tree.Node, carry int)
		down = func(n *tree.Node, carry int) {
			carry = max(carry, n.Degree)
			carryAll[n] = carry
			for _, ch := range n.Children {
				down(ch, carry)
			}
		}
		down(e.Tree.Root, 0)
		plan := opCount(e.Tree, func(n *tree.Node) int { return e.up[n].carry }, func(n *tree.Node) bool { return e.up[n].p2m })
		all := opCount(e.Tree, func(n *tree.Node) int { return carryAll[n] }, (*tree.Node).IsLeaf)
		if plan > all {
			t.Errorf("%s: plan costs %d operations, all-carry plan %d", c.name, plan, all)
		}
		if root := e.upCost[e.up[e.Tree.Root].row]; root != plan {
			t.Errorf("%s: plan's recorded cost %d, its nodes sum to %d", c.name, root, plan)
		}

		again := mustEval(t, c.set, c.cfg)
		var first []upStep
		e.Tree.Walk(func(n *tree.Node) { first = append(first, e.up[n]) })
		i := 0
		again.Tree.Walk(func(n *tree.Node) {
			if got, want := again.up[n], first[i]; got.carry != want.carry || got.p2m != want.p2m {
				t.Fatalf("%s: node %d planned %+v, first construction %+v", c.name, i, got, want)
			}
			i++
		})
	}
}

// TestUpwardPlanWorkerInvariance: the planned upward pass yields bitwise
// identical expansions at 1 and 4 workers.
func TestUpwardPlanWorkerInvariance(t *testing.T) {
	coeffs := func(set *points.Set, c Config) []complex128 {
		var all []complex128
		e := mustEval(t, set, c)
		e.Tree.Walk(func(n *tree.Node) { all = append(all, n.Mp.Coeff...) })
		return all
	}
	for _, c := range upwardCases(t) {
		cfg := c.cfg
		cfg.Workers = 1
		ref := coeffs(c.set, cfg)
		cfg.Workers = 4
		for k, v := range coeffs(c.set, cfg) {
			if math.Float64bits(real(v)) != math.Float64bits(real(ref[k])) ||
				math.Float64bits(imag(v)) != math.Float64bits(imag(ref[k])) {
				t.Fatalf("%s: coefficient %d (in tree walk order) is %v at 4 workers, %v at 1", c.name, k, v, ref[k])
			}
		}
	}
}

// TestUpwardPlanAllocatesNothing pins the plan's storage: after a warm-up,
// re-selecting degrees and re-planning (what a refit with migrants runs)
// allocates nothing, and a pass whose carried degrees drop reslices every
// expansion's storage instead of allocating a new one.
func TestUpwardPlanAllocatesNothing(t *testing.T) {
	set, err := points.Generate(points.Gaussian, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEval(t, set, Config{Method: Adaptive, Degree: 6, Workers: 1})
	c := e.engineConfig()
	e.selectDegrees(&c)
	if a := testing.AllocsPerRun(5, func() { e.selectDegrees(&c) }); a != 0 {
		t.Fatalf("re-selecting degrees and the upward plan allocates %v times", a)
	}

	mps := make(map[*tree.Node]*multipole.Expansion, e.Tree.NNodes)
	e.Tree.Walk(func(n *tree.Node) { mps[n] = n.Mp })
	e.Cfg.Method, e.Cfg.Degree = Original, 2
	c = e.engineConfig()
	e.selectDegrees(&c)
	e.Upward()
	e.Tree.Walk(func(n *tree.Node) {
		if n.Mp != mps[n] || n.Mp.Degree != 2 || len(n.Mp.Coeff) != harmonics.Len(2) {
			t.Fatalf("node at level %d start %d: expansion reallocated or not resliced to degree 2 (degree %d, %d coefficients)",
				n.Level, n.Start, n.Mp.Degree, len(n.Mp.Coeff))
		}
		if row := coefficientMismatch(e.Tree, n); row >= 0 {
			t.Fatalf("node at level %d start %d differs from the P2M of its range in row %d after the degree drop", n.Level, n.Start, row)
		}
	})
}
