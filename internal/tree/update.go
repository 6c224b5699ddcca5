// Incremental tree maintenance across timesteps: Update moves an existing
// octree to new particle positions instead of rebuilding it from scratch.
//
// The pass exploits the n-body regime that motivates it — a particle moves
// a tiny fraction of its leaf size per timestep — so almost every particle
// stays inside its leaf's box and keeps its slot in the tree-ordered
// arrays. The few migrants re-bucket individually: each walks up to the
// nearest ancestor still containing its new position and reinserts down to
// the leaf a fresh construction would bucket it into (creating the octant
// child if that branch was empty). A single compaction pass then reassigns
// the contiguous tree-order ranges, after which leaves split and internal
// nodes collapse against LeafCap exactly as a fresh build would decide.
// Node charge moments, expansion centers, centroids, and both radii then
// refresh bottom-up over the level index.
//
// Internal-node radii refresh with the conservative sphere combine
//
//	r(n) = max over children c of ( |Center(n) - Center(c)| + r(c) )
//
// clamped to the farthest-corner distance of the node's box (every particle
// lies inside the closed box, so the clamp still encloses them all). The
// node sphere therefore always contains all its particles, which is the
// only property the alpha-criterion and the Theorem 2 error budget need:
// a conservative (larger) radius can only turn acceptances into rejections,
// never the reverse, so refit evaluation stays within the fresh-build
// bound. The combine is a pure function of the current positions — it does
// not compound across repeated refits, because leaves rescan exactly.
//
// A drift policy guards the refit: when particles leave the root cube
// farther than the cube's side, the migrant fraction exceeds a threshold,
// or the conservative radii hit their geometric caps too hard, Update
// reports NeedRebuild and leaves the caller to run a full parallel rebuild
// instead. Particles that leave the root cube by at most its side grow the
// root: the old root becomes one octant of a new root twice its side
// (twice over when they left on both sides of an axis), and they re-bucket
// under it like any other migrant. A particle flung out by a close
// encounter therefore costs a new level now and then, not a rebuild on
// every step.
//
// Every phase is deterministic — the census, re-bucketing, and compaction
// are serial scans in tree order; the bottom-up refresh is per-node pure
// over a fixed child order — so the result is bitwise identical at any
// worker count.
package tree

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"treecode/internal/geom"
	"treecode/internal/points"
	"treecode/internal/vec"
)

// UpdateOpts controls one maintenance pass. The zero value selects the
// drift policy, whose thresholds only this package's tests override.
type UpdateOpts struct {
	// Workers is the number of goroutines for the bottom-up refresh; 0
	// means GOMAXPROCS. The result is bitwise identical at any worker
	// count.
	Workers int
	// maxMigrantFrac is the migrant fraction (particles that left their
	// leaf's box) above which Update recommends a full rebuild instead of
	// re-bucketing: past it, per-particle surgery approaches the cost of a
	// fresh (and parallel-friendlier) construction. 0 means 0.25; values
	// above 1 never trigger.
	maxMigrantFrac float64
	// maxInflation is the radius-inflation ratio (conservative sphere
	// combine over the farthest-corner cap, see RefreshGeometry) above
	// which Update recommends a rebuild to restore tight radii. Ratios
	// above 1 mean nodes pinned at their geometric cap. 0 means 2.
	maxInflation float64
	// Active, when non-nil, marks the particles (by original build
	// index, the same indexing as Update's pos argument) that may have
	// moved since the previous pass — the block-timestep active set.
	// The migrant census then scans only active particles, and when no
	// migrant is found the geometry refresh touches only the ancestor
	// chains of leaves holding an active particle; every untouched
	// node's SrcDrift/TgtDrift is zeroed, since its contents provably
	// did not move. Passing a mask that omits a particle whose position
	// changed is a contract violation: the tree would keep stale
	// geometry for it. A non-nil mask has one entry per particle; nil
	// means every particle may have moved.
	Active []bool
}

func (o *UpdateOpts) fill() {
	if o.maxMigrantFrac == 0 {
		o.maxMigrantFrac = 0.25
	}
	if o.maxInflation == 0 {
		o.maxInflation = 2
	}
}

// UpdateStats reports what one maintenance pass saw and did.
type UpdateStats struct {
	Migrants  int // particles that left their leaf's box
	OutOfRoot int // migrants that left the root cube entirely
	Splits    int // leaves created by re-bucketing
	Merges    int // leaves removed by re-bucketing
	// RootGrown reports that the pass doubled the root cube, once or
	// twice, to keep the OutOfRoot migrants: Tree.Root is a new node, and
	// the old root's subtree sits as many levels deeper (see growRoot).
	RootGrown bool
	// MaxInflation is the largest radius-inflation ratio the bottom-up
	// refresh observed (0 when the pass bailed out before refreshing).
	MaxInflation float64
	// NeedRebuild reports that the drift policy wants a full rebuild. The
	// tree is still a valid decomposition of the OLD positions when the
	// pass bailed out early (out-of-root or migrant-fraction thresholds) —
	// but t.Pos already holds the new positions, so the caller must
	// rebuild before evaluating. When only the inflation threshold fired,
	// the tree is fully refreshed and conservative: evaluation would be
	// correct, just slower than after a rebuild.
	NeedRebuild bool
}

// RebuildReason names the drift-policy threshold behind NeedRebuild, for
// observability journals: "out-of-root" (a migrant escaped the root cube
// farther than growing the root reaches), "radius-inflation" (the pass
// reached the geometry refresh, so the early bail-outs did not fire, and
// the inflation cap tripped), or "migrant-fraction" (the remaining early
// bail-out). Empty when the pass did not ask for a rebuild.
func (st UpdateStats) RebuildReason() string {
	switch {
	case !st.NeedRebuild:
		return ""
	case st.OutOfRoot > 0 && !st.RootGrown:
		return "out-of-root"
	case st.MaxInflation > 0:
		return "radius-inflation"
	default:
		return "migrant-fraction"
	}
}

// Update moves the tree to new particle positions, given in the original
// order used to build it (Pos[i] becomes pos[Perm[i]]). Particles that
// stayed inside their leaf's box keep their slot; migrants re-bucket into
// the leaf a fresh build over the root cube would choose, after the root
// grows if some of them left it (see growRoot); all node statistics
// refresh bottom-up with conservative radii (see the package comment).
// When the returned stats report NeedRebuild the caller should discard the
// tree and build fresh from the new positions. A NaN or infinite position
// (an error wrapping points.ErrNonFinite), or an Active mask whose length
// is not the particle count, is rejected with an error before anything is
// written, so the tree stays as it was.
func (t *Tree) Update(pos []vec.V3, opts UpdateOpts) (UpdateStats, error) {
	var st UpdateStats
	if len(pos) != len(t.Pos) {
		return st, fmt.Errorf("tree: %d positions for %d particles", len(pos), len(t.Pos))
	}
	if err := points.CheckFinitePositions(pos); err != nil {
		return st, fmt.Errorf("tree: %w", err)
	}
	if opts.Active != nil && len(opts.Active) != len(pos) {
		return st, fmt.Errorf("tree: active mask of %d entries for %d particles", len(opts.Active), len(pos))
	}
	opts.fill()
	t.seq++
	for i, orig := range t.Perm {
		t.Pos[i] = pos[orig]
	}
	// Migrant census: one pass over the leaves in tree order, so the
	// migrant list is ascending in tree index. Under an active mask only
	// active particles are tested — inactive ones did not move, so they
	// cannot have left their leaf.
	var migrants []int
	rootBox := t.Root.Box
	active := opts.Active
	t.Walk(func(n *Node) {
		if !n.IsLeaf() {
			return
		}
		for i := n.Start; i < n.End; i++ {
			if active != nil && !active[t.Perm[i]] {
				continue
			}
			if !n.Box.Contains(t.Pos[i]) {
				migrants = append(migrants, i)
				if !rootBox.Contains(t.Pos[i]) {
					st.OutOfRoot++
				}
			}
		}
	})
	st.Migrants = len(migrants)
	if float64(st.Migrants) > opts.maxMigrantFrac*float64(len(t.Pos)) {
		st.NeedRebuild = true
		return st, nil
	}
	if st.OutOfRoot > 0 {
		if !t.growRoot(migrants) {
			st.NeedRebuild = true
			return st, nil
		}
		st.RootGrown = true
	}
	if st.Migrants > 0 {
		t.relocate(migrants, &st)
		t.restructure(t.Root, &st)
		t.recount()
	}
	if st.Migrants > 0 {
		// Particles changed leaves, so nodes off the active particles'
		// ancestor chains may have changed too: refresh every node.
		active = nil
	}
	st.MaxInflation = t.RefreshGeometry(opts.Workers, active)
	if st.MaxInflation > opts.maxInflation {
		st.NeedRebuild = true
	}
	return st, nil
}

// growRoot doubles the root cube toward the migrants that left it, once or
// twice, until it contains them all. Each new root keeps the current root's
// corner opposite the escape on every axis (axes without one grow upward),
// so the current root is exactly one of its octants and keeps its whole
// subtree, one level deeper. Two doublings reach one old side beyond every
// face of the old root, escapes on both sides of an axis included. The new
// roots are Shape-stamped (their child lists are new); relocate then
// re-buckets the escaped migrants under them, creating their octant leaves.
// It reports false, changing nothing, when an escape lies farther out than
// one side of the old root, or the new levels would pass MaxDepth.
func (t *Tree) growRoot(migrants []int) bool {
	old := t.Root.Box
	esc := old
	for _, i := range migrants {
		esc = esc.Extend(t.Pos[i])
	}
	side := old.MaxDim()
	d := vec.V3{X: side, Y: side, Z: side}
	if !(geom.AABB{Lo: old.Lo.Sub(d), Hi: old.Hi.Add(d)}).ContainsBox(esc) {
		return false
	}
	var boxes []geom.AABB
	for box := old; len(boxes) < 2 && !box.ContainsBox(esc); {
		box = doubleToward(box, esc)
		boxes = append(boxes, box)
	}
	k := len(boxes)
	if !boxes[k-1].ContainsBox(esc) || t.Height+k > MaxDepth {
		return false
	}
	t.Walk(func(n *Node) { n.Level += k })
	for j, box := range boxes {
		t.Root = &Node{Box: box, Level: k - 1 - j, Start: 0, End: len(t.Pos), Children: []*Node{t.Root}, Shape: t.seq}
	}
	return true
}

// doubleToward returns the box of twice b's side that keeps b as an
// octant: on each axis it extends below b when c reaches below b, above b
// otherwise.
func doubleToward(b, c geom.AABB) geom.AABB {
	s := b.MaxDim()
	grow := func(lo, hi, clo float64) (float64, float64) {
		if clo < lo {
			return lo - s, hi
		}
		return lo, hi + s
	}
	b.Lo.X, b.Hi.X = grow(b.Lo.X, b.Hi.X, c.Lo.X)
	b.Lo.Y, b.Hi.Y = grow(b.Lo.Y, b.Hi.Y, c.Lo.Y)
	b.Lo.Z, b.Hi.Z = grow(b.Lo.Z, b.Hi.Z, c.Lo.Z)
	return b
}

// destLeaf descends from the root to the leaf a fresh construction would
// bucket position p into, following the same octant indexing the partition
// uses. When the path runs into an octant with no child (previously
// empty), the leaf for that octant is created on the spot and spliced into
// the parent's octant-ordered child list.
func (t *Tree) destLeaf(p vec.V3, st *UpdateStats) *Node {
	n := t.Root
	for !n.IsLeaf() {
		o := n.Box.OctantIndex(p)
		var next *Node
		at := len(n.Children)
		for i, c := range n.Children {
			co := n.Box.OctantIndex(c.Box.Center())
			if co == o {
				next = c
				break
			}
			if co > o {
				at = i
				break
			}
		}
		if next == nil {
			next = &Node{Box: n.Box.Octant(o), Level: n.Level + 1}
			n.Children = append(n.Children, nil)
			copy(n.Children[at+1:], n.Children[at:])
			n.Children[at] = next
			n.Shape = t.seq
			st.Splits++
		}
		n = next
	}
	return n
}

// relocate re-buckets the migrants (ascending tree indices) into their
// destination leaves and compacts the tree-ordered arrays in one serial
// pass: every leaf's new content is its old non-migrant slice, in order,
// followed by its incoming migrants, in ascending old index — a fully
// deterministic rule — and every node's [Start, End) is reassigned by the
// same pre-order walk. The scratch arrays are kept on the tree and reused
// across refits.
func (t *Tree) relocate(migrants []int, st *UpdateStats) {
	n := len(t.Pos)
	if cap(t.scratchPos) < n {
		t.scratchPos = make([]vec.V3, n)
		t.scratchQ = make([]float64, n)
		t.scratchPerm = make([]int, n)
		t.migrantMark = make([]bool, n)
	}
	newPos, newQ, newPerm := t.scratchPos[:n], t.scratchQ[:n], t.scratchPerm[:n]
	mark := t.migrantMark[:n]
	incoming := make(map[*Node][]int, len(migrants))
	for _, i := range migrants {
		mark[i] = true
		d := t.destLeaf(t.Pos[i], st)
		incoming[d] = append(incoming[d], i)
	}
	cursor := 0
	take := func(i int) {
		newPos[cursor] = t.Pos[i]
		newQ[cursor] = t.Q[i]
		newPerm[cursor] = t.Perm[i]
		cursor++
	}
	var place func(nd *Node)
	place = func(nd *Node) {
		start := cursor
		if nd.IsLeaf() {
			for i := nd.Start; i < nd.End; i++ {
				if !mark[i] {
					take(i)
				}
			}
			for _, i := range incoming[nd] {
				take(i)
			}
		} else {
			for _, c := range nd.Children {
				place(c)
			}
		}
		nd.Start, nd.End = start, cursor
	}
	place(t.Root)
	for _, i := range migrants {
		mark[i] = false
	}
	t.Pos, t.scratchPos = newPos, t.Pos
	t.Q, t.scratchQ = newQ, t.Q
	t.Perm, t.scratchPerm = newPerm, t.Perm
}

// restructure re-imposes the construction invariant — a node is internal
// iff its count exceeds LeafCap (depth cap aside) and children are
// non-empty — after relocation changed the counts: drained children
// disappear, underfull internal nodes collapse into leaves, and overfull
// leaves regrow with the standard serial builder.
func (t *Tree) restructure(n *Node, st *UpdateStats) {
	if n.Count() <= t.LeafCap {
		if !n.IsLeaf() {
			st.Merges += countLeaves(n) - 1
			n.Children = nil
			n.Shape = t.seq
		}
		return
	}
	if n.IsLeaf() {
		if n.Level < MaxDepth {
			t.rebuildSubtree(n)
			st.Splits += countLeaves(n) - 1
		}
		return
	}
	kept := n.Children[:0]
	for _, c := range n.Children {
		if c.Count() == 0 {
			st.Merges += countLeaves(c)
			continue
		}
		kept = append(kept, c)
	}
	if len(kept) < len(n.Children) {
		n.Shape = t.seq
	}
	n.Children = kept
	for _, c := range n.Children {
		t.restructure(c, st)
	}
}

// rebuildSubtree re-buckets the particles of n from scratch: the subtree
// collapses to a single node (charge statistics rescanned from its range
// in tree order) and regrows with the standard serial builder, splitting
// leaves against LeafCap exactly as a fresh construction would. The node
// census is repaired afterwards by recount.
func (t *Tree) rebuildSubtree(n *Node) {
	m := t.scanMoments(n.Start, n.End)
	applyMoments(n, &m)
	n.Children = nil
	n.Shape = t.seq
	b := builder{t: t}
	b.grow(n)
}

// countLeaves returns the number of leaves in the subtree at n.
func countLeaves(n *Node) int {
	if n.IsLeaf() {
		return 1
	}
	c := 0
	for _, ch := range n.Children {
		c += countLeaves(ch)
	}
	return c
}

// recount rebuilds the node census and the level index after subtree
// surgery changed the tree's shape.
func (t *Tree) recount() {
	t.NNodes, t.NLeaves, t.Height = 0, 0, 0
	t.Walk(func(n *Node) {
		t.NNodes++
		if n.IsLeaf() {
			t.NLeaves++
		}
		if n.Level > t.Height {
			t.Height = n.Level
		}
	})
	t.initLevels()
}

// RefreshGeometry recomputes the charge moments, expansion center,
// centroid, and both radii of the nodes after the particle positions
// (and/or charges) changed in place — the position-space extension of
// RefreshChargeStats. Leaves rescan their own range in tree order (exact
// radii); internal nodes merge their children's statistics in fixed child
// order and combine child spheres conservatively, clamped to the
// farthest-corner distance of the node's box (see refreshNode). O(nodes +
// n) total, one LevelSyncUp pass, bitwise identical at any worker count.
//
// A nil active mask refreshes every node. A mask (by original particle
// index, as for Update) is for passes where every particle kept its slot:
// a node's statistics can then only have changed if its subtree holds an
// active particle, so only those dirty nodes — the ancestor chains of
// leaves holding an active particle — are refreshed. Clean children
// contribute their stored, still-exact statistics to dirty parents, and
// every clean node's SrcDrift/TgtDrift is zeroed, since its spheres
// provably did not move (plan revalidation would otherwise re-consume
// drift recorded by an earlier refresh). Dirty nodes go through the same
// pure refreshNode, so after an unmasked refresh, a masked one covering
// every moved particle leaves each node bitwise as an unmasked one would.
//
// The returned value is the largest radius-inflation ratio observed over
// the refreshed internal nodes: conservative combine over corner cap, so
// values above 1 mean the combine was clamped at the cap — the drift
// signal Update's fallback policy thresholds. A clean node's ratio is
// unchanged from the pass that last refreshed it, when it was already
// checked against the drift policy.
func (t *Tree) RefreshGeometry(workers int, active []bool) float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var dirty map[*Node]bool
	if active != nil {
		dirty = t.dirtyNodes(active)
	}
	worst := make([]float64, workers)
	LevelSyncUp(t, workers, func(n *Node, id int) {
		if dirty != nil && !dirty[n] {
			n.SrcDrift, n.TgtDrift = 0, 0
			return
		}
		if f := t.refreshNode(n); f > worst[id] {
			worst[id] = f
		}
	})
	return slices.Max(worst)
}

// dirtyNodes returns the nodes whose subtree holds an active particle: the
// leaves whose range holds one, and their ancestors.
func (t *Tree) dirtyNodes(active []bool) map[*Node]bool {
	dirty := make(map[*Node]bool, t.NLeaves)
	var mark func(n *Node) bool
	mark = func(n *Node) bool {
		d := false
		if n.IsLeaf() {
			for i := n.Start; i < n.End && !d; i++ {
				d = active[t.Perm[i]]
			}
		} else {
			for _, c := range n.Children {
				if mark(c) {
					d = true
				}
			}
		}
		if d {
			dirty[n] = true
		}
		return d
	}
	mark(t.Root)
	return dirty
}

// refreshNode recomputes one node's charge moments, centers, and radii
// from its range (leaves, exact) or its already-refreshed children
// (internal nodes, conservative). The conservative sphere combine
//
//	r(n) = max over children c of ( |Center(n) - Center(c)| + r(c) )
//
// contains every particle because each child sphere does; the clamp to the
// farthest-corner distance of the node's box stays an enclosing sphere
// because all particles lie inside the closed box after re-bucketing.
// Returns the node's radius-inflation ratio (combine over cap, the larger
// of the Center/Radius and Centroid/BRadius spheres), 0 for leaves.
//
// The pass also records the node's per-refresh drift for plan-cache
// revalidation: SrcDrift bounds how much any MAC sphere-test margin that
// read (Center, Radius) can have moved, TgtDrift the same for (Centroid,
// BRadius). Both overestimate for criteria reading fewer fields (box-based
// extents and reference points never move), which only errs conservative.
//
//treecode:hot
func (t *Tree) refreshNode(n *Node) float64 {
	oldCenter, oldRadius := n.Center, n.Radius
	oldCentroid, oldBRadius := n.Centroid, n.BRadius
	if n.IsLeaf() {
		m := t.scanMoments(n.Start, n.End)
		applyMoments(n, &m)
		t.radiiScan(n)
		n.SrcDrift = oldCenter.Dist(n.Center) + math.Abs(n.Radius-oldRadius)
		n.TgtDrift = oldCentroid.Dist(n.Centroid) + math.Abs(n.BRadius-oldBRadius)
		return 0
	}
	var m moments
	for _, c := range n.Children {
		m.merge(moments{
			q:    c.Charge,
			absQ: c.AbsCharge,
			wc:   c.Center.Scale(c.AbsCharge),
			gc:   c.Centroid.Scale(float64(c.Count())),
		})
	}
	applyMoments(n, &m)
	var r, b float64
	for _, c := range n.Children {
		if d := n.Center.Dist(c.Center) + c.Radius; d > r {
			r = d
		}
		if d := n.Centroid.Dist(c.Centroid) + c.BRadius; d > b {
			b = d
		}
	}
	capR := n.Box.MaxDist(n.Center)
	capB := n.Box.MaxDist(n.Centroid)
	infl := 0.0
	if capR > 0 {
		infl = r / capR
	}
	if capB > 0 {
		if f := b / capB; f > infl {
			infl = f
		}
	}
	if r > capR {
		r = capR
	}
	if b > capB {
		b = capB
	}
	n.Radius, n.BRadius = r, b
	n.SrcDrift = oldCenter.Dist(n.Center) + math.Abs(n.Radius-oldRadius)
	n.TgtDrift = oldCentroid.Dist(n.Centroid) + math.Abs(n.BRadius-oldBRadius)
	return infl
}
