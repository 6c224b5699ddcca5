package core

import (
	"fmt"
	"runtime"
	"time"

	"treecode/internal/bounds"
	"treecode/internal/harmonics"
	"treecode/internal/multipole"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// EngineConfig is the source-side share of an evaluator's configuration:
// everything the octree, the Theorem 3 degrees and the upward pass depend
// on. Evaluators hand the engine a function that derives it from their own
// Config, and the engine calls it on every operation, so settings changed
// on a live evaluator (Workers, Obs) apply from the next call on.
type EngineConfig struct {
	// Name prefixes the engine's obs spans ("core/build", "fmm/refit") and
	// its error messages.
	Name        string
	Method      Method
	Alpha       float64
	Degree      int
	MaxDegree   int
	LeafCap     int
	Workers     int
	RefQuantile float64
	Obs         *obs.Collector
}

// start opens the top-level span Name/phase; nil (and no allocation) when
// obs is off.
func (c *EngineConfig) start(phase string) *obs.Span {
	if c.Obs == nil {
		return nil
	}
	return c.Obs.Start(c.Name + "/" + phase)
}

// Engine is the source side shared by the treecode and the FMM: the
// octree, the per-node Theorem 3 degrees, and the multipole expansions the
// upward plan builds (planUpward). It owns the whole source lifecycle —
// construction, refit with full-rebuild fallback, recharge — and both
// evaluators embed it; only their target sides differ.
type Engine struct {
	Tree *tree.Tree

	up     map[*tree.Node]upStep // the upward plan: how each expansion is built
	maxP   int                   // largest selected (and carried) degree
	buildT time.Duration

	// upCost and m2mOps are the plan's scratch, kept across selections so
	// that re-planning after a refit allocates nothing: every node's cost
	// row (planCost) and TranslateOps by degree.
	upCost []int64
	m2mOps []int64

	// upBuf is the upward pass's per-worker M2M harmonics scratch,
	// kept across recharges and refits so that a steady-state pass
	// allocates none; upScratch regrows it with the worker count or the
	// largest carried degree.
	upBuf [][]complex128

	cfg func() EngineConfig // the owning evaluator's settings, read per call

	// owner is the treecode that embeds this engine, whose leaf list and
	// cached interaction plans follow every construction and refit (the
	// evaluator-specific share of the lifecycle). Nil for the FMM, which
	// re-traverses on every evaluation.
	owner *Evaluator
}

// Init builds the octree over set, selects degrees and runs the upward
// pass. cfg supplies the owning evaluator's settings on every later call.
func (g *Engine) Init(set *points.Set, cfg func() EngineConfig) error {
	g.cfg = cfg
	return g.build(set, "")
}

// build constructs the source side from scratch — shared by Init and the
// refit's full-rebuild fallback.
func (g *Engine) build(set *points.Set, rebuild string) error {
	c := g.cfg()
	start := time.Now()
	bsp := c.start("build")
	sp := bsp.Child("tree")
	tr, err := tree.Build(set, tree.Config{LeafCap: c.LeafCap, Workers: c.Workers})
	sp.End()
	if err != nil {
		bsp.End()
		return err
	}
	g.Tree = tr
	sp = bsp.Child("degrees")
	g.selectDegrees(&c)
	sp.End()
	bsp.End()
	g.Upward()
	if g.owner != nil {
		g.owner.built(rebuild)
	}
	g.buildT = time.Since(start)
	return nil
}

// Update moves the engine to new particle positions (given in the
// original order used to build it), keeping it alive across timesteps.
// The octree is maintained in place by tree.Update — particles that stayed
// inside their leaf keep their slot, migrants re-bucket locally,
// statistics and conservative radii refresh bottom-up — and the upward
// pass reuses expansion storage exactly like SetCharges, so the
// steady-state (zero-migrant) path allocates next to nothing. When the
// drift policy detects too much motion, Update falls back to a full
// parallel rebuild; the returned RebuildKind reports which path ran.
//
// Conservative radii only make both the treecode's acceptance test and
// the FMM's separation test stricter, so refitted interactions stay within
// the fresh-build error bound. Degrees are re-selected only when the
// decomposition changed (any migrant): Theorem 3 degrees depend on cluster
// charges and box sizes, not on where particles sit inside their boxes.
// It must not run concurrently with evaluation calls.
func (g *Engine) Update(pos []vec.V3) (RebuildKind, error) {
	return g.UpdateFor(pos, nil)
}

// UpdateFor is Update with a block-timestep active mask: active marks, by
// original particle index, the particles that may have moved since the
// previous maintenance pass. tree.Update then restricts its migrant census
// and (when no migrant is found) its geometry refresh to the marked
// particles' ancestor chains, zeroing the drift of untouched nodes so plan
// revalidation does not re-consume drift an earlier refresh recorded.
// Passing a mask that omits a moved particle is a contract violation. A
// nil mask is Update. A non-finite position (any particle, active or not;
// an error wrapping points.ErrNonFinite) or a non-nil mask whose length is
// not the particle count is rejected with an error before anything is
// written, so the engine keeps evaluating the previous positions.
func (g *Engine) UpdateFor(pos []vec.V3, active []bool) (RebuildKind, error) {
	c := g.cfg()
	t := g.Tree
	if len(pos) != len(t.Pos) {
		return RebuildFull, fmt.Errorf("%s: %d positions for %d particles", c.Name, len(pos), len(t.Pos))
	}
	start := time.Now()
	sp := c.start("refit")
	ch := sp.Child("tree")
	st, err := t.Update(pos, tree.UpdateOpts{Workers: c.Workers, Active: active})
	ch.End()
	if err != nil {
		sp.End()
		return RebuildFull, err
	}
	if st.NeedRebuild {
		sp.End()
		c.Obs.AddRefit(obs.RefitMetrics{Updates: 1, Rebuilds: 1,
			Migrants: int64(st.Migrants), RadiusInflationMax: st.MaxInflation})
		c.Obs.AddEvent(obs.EventRebuildFallback, st.RebuildReason(), float64(st.Migrants))
		return RebuildFull, g.build(g.snapshotSet(pos), st.RebuildReason())
	}
	if st.RootGrown {
		c.Obs.AddEvent(obs.EventRootGrow, "out-of-root", float64(st.OutOfRoot))
	}
	if st.Migrants > 0 {
		// The decomposition changed: leaves split or merged, cluster
		// charges moved between boxes. Re-select degrees and re-plan the
		// upward pass for the new shape.
		ch = sp.Child("degrees")
		g.selectDegrees(&c)
		ch.End()
	}
	if g.owner != nil {
		// Inside the refit span, after the tree update and any degree
		// re-selection: plans revalidate against this refit's drift.
		ch = sp.Child("plans")
		g.owner.refitted(st.Migrants)
		ch.End()
	}
	ch = sp.Child("upward")
	g.upward(&c)
	ch.End()
	sp.End()
	g.buildT = time.Since(start)
	c.Obs.AddRefit(obs.RefitMetrics{Updates: 1, Refits: 1,
		Migrants: int64(st.Migrants), Splits: int64(st.Splits), Merges: int64(st.Merges),
		RadiusInflationMax: st.MaxInflation})
	return RebuildRefit, nil
}

// snapshotSet reassembles a points.Set in original particle order from the
// new positions and the tree's (permuted) charges, for the full-rebuild
// fallback.
func (g *Engine) snapshotSet(pos []vec.V3) *points.Set {
	t := g.Tree
	ps := make([]points.Particle, len(pos))
	for i, orig := range t.Perm {
		ps[orig] = points.Particle{Pos: pos[orig], Charge: t.Q[i]}
	}
	return &points.Set{Particles: ps}
}

// MaxSelectedDegree returns the largest degree selected for any node. It
// is also the largest degree any expansion is built at (the upward plan
// carries a node at its own degree or an ancestor's), so callers sizing
// evaluation scratch — e.g. the FMM's M2L sweep buffers — read it instead
// of re-walking the tree.
func (g *Engine) MaxSelectedDegree() int { return g.maxP }

// BuildTime returns the duration of the last construction or refit (tree
// plus upward pass).
func (g *Engine) BuildTime() time.Duration { return g.buildT }

// selectDegrees assigns every node its evaluation degree (Theorem 3 for the
// adaptive method) and plans how the upward pass builds its expansion.
func (g *Engine) selectDegrees(c *EngineConfig) {
	var sel *bounds.DegreeSelector
	if c.Method == Adaptive {
		var aRef, sRef float64
		var ok bool
		if c.RefQuantile > 0 {
			aRef, sRef, ok = g.Tree.LeafStatsQuantile(c.RefQuantile)
		} else {
			aRef, sRef, ok = g.Tree.MinLeafStats()
		}
		if ok {
			sel = bounds.NewDegreeSelector(c.Alpha, c.Degree, c.MaxDegree, aRef, sRef)
		}
	}
	maxP := 0
	g.Tree.Walk(func(n *tree.Node) {
		if sel != nil {
			n.Degree = sel.Degree(n.AbsCharge, n.Size())
		} else {
			n.Degree = c.Degree
		}
		maxP = max(maxP, n.Degree)
	})
	if sel != nil {
		// Surface silent accuracy loss: selections stopped at the Legendre
		// stability cap show up in the metrics instead of vanishing.
		c.Obs.AddDegreeClamps(sel.ClampCount())
	}
	g.maxP = maxP
	g.planUpward()
}

// upStep is one node's entry in the upward plan.
type upStep struct {
	carry int  // degree the expansion is built at, at least the node's own
	p2m   bool // P2M over the node's range; otherwise M2M from its children
	row   int  // start of the node's cost row in Engine.upCost
}

// planUpward chooses, per node, the cheapest exact way to build its
// expansion. Every expansion is needed at its own degree for evaluation,
// and an M2M into a degree-P parent needs its children carried at P or
// more, so an internal node carried at P is built either by
//
//   - P2M over its particle range [Start, End), after which each child
//     needs only its own degree, or
//   - M2M from its children, each carried at max(child degree, P).
//
// Both are exact to degree P, so the choice moves coefficients only at
// roundoff. A dynamic program over (node, carried degree) picks the
// cheaper option bottom-up (planCost), and the root, carried at its own
// degree, fixes every node's carried degree top-down (planCarry). The cost
// is an operation count with no measured constant: harmonics.Len(P) per
// P2M particle and multipole.TranslateOps(P) per M2M child. Leaves are
// always P2M. The plan depends only on the decomposition and the degrees,
// so it is made where degrees are selected (construction, refits with
// migrants) and SetCharges keeps it.
func (g *Engine) planUpward() {
	for len(g.m2mOps) <= g.maxP {
		g.m2mOps = append(g.m2mOps, multipole.TranslateOps(len(g.m2mOps)))
	}
	if g.up == nil {
		g.up = make(map[*tree.Node]upStep, g.Tree.NNodes)
	}
	clear(g.up)
	g.upCost = g.upCost[:0]
	g.planCost(g.Tree.Root)
	g.planCarry(g.Tree.Root, g.Tree.Root.Degree)
}

// planCost appends the cost rows of n's subtree in post-order: n's row
// holds, for each carried degree P from n.Degree to maxP, the cheapest
// operation count that builds n's subtree with n at degree P.
func (g *Engine) planCost(n *tree.Node) {
	for _, ch := range n.Children {
		g.planCost(ch)
	}
	row := len(g.upCost)
	for p := n.Degree; p <= g.maxP; p++ {
		cost, _ := g.stepCost(n, p)
		g.upCost = append(g.upCost, cost)
	}
	g.up[n] = upStep{row: row}
}

// stepCost returns the cheapest cost of building n's subtree with n carried
// at degree p, from its children's cost rows, and whether P2M achieves it
// (M2M wins ties).
func (g *Engine) stepCost(n *tree.Node, p int) (int64, bool) {
	p2m := int64(n.Count()) * int64(harmonics.Len(p))
	if n.IsLeaf() {
		return p2m, true
	}
	m2m := int64(len(n.Children)) * g.m2mOps[p]
	for _, ch := range n.Children {
		row := g.up[ch].row // row[0] is the child at its own degree
		p2m += g.upCost[row]
		m2m += g.upCost[row+max(p-ch.Degree, 0)]
	}
	if p2m < m2m {
		return p2m, true
	}
	return m2m, false
}

// planCarry records n's carried degree p and its cheaper build, then
// carries its children: at their own degree below a P2M node, at
// max(own, p) below an M2M node.
func (g *Engine) planCarry(n *tree.Node, p int) {
	_, p2m := g.stepCost(n, p)
	st := g.up[n]
	st.carry, st.p2m = p, p2m
	g.up[n] = st
	for _, ch := range n.Children {
		if p2m {
			g.planCarry(ch, ch.Degree)
		} else {
			g.planCarry(ch, max(ch.Degree, p))
		}
	}
}

// Upward runs the upward multipole pass the plan prescribes (P2M at leaves
// and wherever it is cheaper, M2M elsewhere) level-synchronized on the
// work-stealing pool: all nodes of the deepest level first, so every M2M
// reads fully-built children. Each worker carries one spherical-harmonics
// scratch buffer for M2M, owned by the engine; P2M needs none. Per-node
// arithmetic (own range in tree order, children in fixed order) never
// depends on the schedule, so the expansions are bitwise identical at any
// worker count. Construction calls it once; it is exported so benchmarks
// can rerun it.
func (g *Engine) Upward() {
	c := g.cfg()
	sp := c.start("upward")
	defer sp.End()
	g.upward(&c)
}

func (g *Engine) upward(c *EngineConfig) {
	t := g.Tree
	tree.LevelSyncUp(t, g.upScratch(c.Workers),
		func(n *tree.Node, buf []complex128) {
			st := g.up[n]
			p := st.carry
			buf = buf[:harmonics.Len(p)]
			if n.Mp == nil || cap(n.Mp.Coeff) < len(buf) {
				n.Mp = multipole.NewExpansion(n.Center, p)
			} else {
				// Recharge/refit path: reuse the coefficient storage,
				// resliced to the carried degree, which a re-plan may have
				// lowered. Clear keeps the old center, and a refit may
				// have moved the node's, so re-anchor explicitly.
				n.Mp.Degree = p
				n.Mp.Coeff = n.Mp.Coeff[:len(buf)]
				n.Mp.Clear()
				n.Mp.Center = n.Center
			}
			if st.p2m {
				for i := n.Start; i < n.End; i++ {
					n.Mp.AddParticle(t.Pos[i], t.Q[i])
				}
				if n.IsLeaf() {
					return
				}
				// An internal node takes its cluster statistics from its
				// children, as M2M does, so acceptance decisions and
				// Theorem 2 bounds do not depend on how it was built.
				n.Mp.AbsCharge, n.Mp.Radius = 0, 0
				for _, ch := range n.Children {
					n.Mp.AccumulateStats(ch.Mp)
				}
			} else {
				for _, ch := range n.Children {
					n.Mp.AccumulateTranslatedBuf(ch.Mp, buf)
				}
			}
			// The translated radius estimate (child radius + shift) can
			// overshoot the true cluster radius; the tree's exact value is
			// available, so keep the tighter of the two.
			if n.Radius < n.Mp.Radius {
				n.Mp.Radius = n.Radius
			}
		})
}

// upScratch returns one scratch buffer of length >= harmonics.Len(g.maxP)
// per upward worker (0 workers means GOMAXPROCS), reusing the engine's
// buffers when they are large enough.
func (g *Engine) upScratch(workers int) [][]complex128 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := harmonics.Len(g.maxP)
	if len(g.upBuf) < workers || len(g.upBuf[0]) < n {
		g.upBuf = make([][]complex128, workers)
		for i := range g.upBuf {
			g.upBuf[i] = make([]complex128, n)
		}
	}
	return g.upBuf[:workers]
}

// SetCharges replaces the particle charges (given in the original order
// used to build the engine) and reruns the upward pass. Node charge
// statistics refresh bottom-up — leaves rescan their own range, internal
// nodes sum children, O(nodes + n) — and expansion storage is reused. The
// tree geometry and degree selection are kept: degrees are a property of
// the decomposition chosen at construction, exactly as the paper
// prescribes for iterative solvers where only the source strengths change
// per iteration. Centers are kept too: moving them would change the
// decomposition the degrees were chosen for. A non-finite charge is
// rejected with an error wrapping points.ErrNonFinite before anything is
// written. It must not run concurrently with evaluation calls.
func (g *Engine) SetCharges(q []float64) error {
	c := g.cfg()
	t := g.Tree
	if len(q) != len(t.Q) {
		return fmt.Errorf("%s: %d charges for %d particles", c.Name, len(q), len(t.Q))
	}
	if err := points.CheckFiniteCharges(q); err != nil {
		return fmt.Errorf("%s: %w", c.Name, err)
	}
	sp := c.start("recharge")
	defer sp.End()
	for i, orig := range t.Perm {
		t.Q[i] = q[orig]
	}
	ch := sp.Child("stats")
	t.RefreshChargeStats(c.Workers)
	ch.End()
	ch = sp.Child("upward")
	g.upward(&c)
	ch.End()
	return nil
}

// UpwardTerms returns the multipole terms the upward pass computes: the
// node's particle count times Terms(carry) for every P2M-built node (each
// leaf, and each internal node the plan builds by P2M), and one
// Terms(carry) expansion for every M2M-built node.
func (g *Engine) UpwardTerms() int64 {
	var terms int64
	g.Tree.Walk(func(n *tree.Node) {
		st := g.up[n]
		if st.p2m {
			terms += int64(n.Count()) * multipole.Terms(st.carry)
		} else {
			terms += multipole.Terms(st.carry)
		}
	})
	return terms
}
