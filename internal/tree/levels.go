package tree

import "treecode/internal/sched"

// initLevels groups the nodes by level in a single pre-order walk. Pre-order
// visits subtrees in ascending range order, so within each level the nodes
// come out Start-ascending — a canonical order independent of how the build
// was scheduled. A refit that changed the decomposition regroups into the
// previous grouping's arrays, so it allocates only for levels that grew.
func (t *Tree) initLevels() {
	if n := t.Height + 1; cap(t.levels) < n {
		t.levels = append(t.levels[:cap(t.levels)], make([][]*Node, n-cap(t.levels))...)
	} else {
		t.levels = t.levels[:n]
	}
	for l := range t.levels {
		t.levels[l] = t.levels[l][:0]
	}
	t.Walk(func(n *Node) {
		t.levels[n.Level] = append(t.levels[n.Level], n)
	})
}

// Levels returns the nodes grouped by level (index 0 is the root's level),
// Start-ascending within each level. The slices are shared: callers must
// not mutate them.
func (t *Tree) Levels() [][]*Node {
	if t.levels == nil {
		t.initLevels()
	}
	return t.levels
}

// LevelSyncUp runs visit over every node in level-synchronized bottom-up
// order: the deepest level first, all nodes of a level (possibly in
// parallel on the work-stealing pool) before any node of the level above.
// Children therefore always complete before their parent — the dependency
// order of the upward multipole pass (P2M at leaves, M2M at internal
// nodes) — without per-node synchronization. It runs on workers goroutines
// (0 means GOMAXPROCS) and passes visit the id, in [0, workers), of the
// worker running it, so a caller may keep per-worker scratch (e.g. a
// spherical-harmonics buffer) indexed by id.
//
// visit must only write to its node and its worker's scratch; under that
// contract the result is bitwise identical at any worker count, because
// every per-node computation reads only the node's own range and its
// (already complete) children in fixed order.
func LevelSyncUp(t *Tree, workers int, visit func(n *Node, id int)) {
	levels := t.Levels()
	for l := len(levels) - 1; l >= 0; l-- {
		nodes := levels[l]
		sched.Run(len(nodes), workers, func(id int, next func() (int, bool)) {
			for i, ok := next(); ok; i, ok = next() {
				visit(nodes[i], id)
			}
		})
	}
}

// RefreshChargeStats updates every node's Charge and AbsCharge after the
// particle charges (t.Q) changed in place: leaves rescan their own range,
// internal nodes sum their children — O(nodes + n) total instead of the
// O(n·depth) per-node rescan. Expansion centers, radii, and degrees are
// deliberately kept: they are properties of the decomposition the degrees
// were selected for, exactly as the paper prescribes for iterative solvers
// where only the source strengths change between matrix applications.
func (t *Tree) RefreshChargeStats(workers int) {
	LevelSyncUp(t, workers, func(n *Node, _ int) {
		var q, absQ float64
		if n.IsLeaf() {
			for i := n.Start; i < n.End; i++ {
				a := t.Q[i]
				q += a
				if a < 0 {
					a = -a
				}
				absQ += a
			}
		} else {
			for _, c := range n.Children {
				q += c.Charge
				absQ += c.AbsCharge
			}
		}
		n.Charge, n.AbsCharge = q, absQ
	})
}
