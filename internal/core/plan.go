package core

// Persistent interaction-plan cache for the leaf-batched evaluator.
//
// A batched evaluation classifies the octree against each target leaf's
// bounding sphere (collect in batched.go): provable whole-leaf accepts go
// on a shared far-field (M2P) list, provable whole-leaf rejects descend or
// join the near-field (P2P) list, and the band between the two sphere
// bounds falls back to per-particle MAC tests. Under the persistent engine
// (Evaluator.Update) that classification is nearly static between
// timesteps, so re-deriving it from scratch on every force call wastes the
// dominant share of traversal time.
//
// This file caches the classification: one leafPlan per target leaf, a
// flat DFS-ordered list of planEntry records — the traversal's decision at
// every node it touched, plus the *slack* by which the decision held at
// build time (the signed margin of the conservative sphere test,
// mac.SphereMAC.SphereSlacks). Revalidation is then O(1) per entry: a
// decision at node n for target leaf l survives a refit as long as
//
//	SrcDrift(n) + TgtDrift(l) < slack,
//
// because the sphere-test quantity extent - alpha*(r -+ rho) moves by at
// most |Δextent| + alpha*(|Δref| + |Δcentroid| + |Δbradius|), which the
// two drift sums bound from above for every built-in criterion (alpha < 1,
// and box-based extents and reference points never move at all). Entries
// whose nodes were restructured (children added, removed, or regrown) are
// detected by the tree's update sequence stamp (Node.Shape == Tree.Seq())
// — structural change cannot be bounded by geometry drift. Everything else
// is *reused verbatim*, which is what makes the cached evaluation bitwise
// identical to a fresh traversal: a kept entry is exactly the entry the
// fresh collect would produce (the conservative check can only keep
// decisions whose inequality still holds), and repair re-collects invalid
// subtree spans in place, preserving the DFS order the evaluation sums in.
//
// Invalidation lattice, coarsest to finest:
//
//	construct (New, full-rebuild fallback)  -> whole store dropped
//	Update that grew the root               -> every plan re-collected
//	                                           (plans start at the root)
//	Update with migrants (splits/merges)    -> plans realigned by leaf
//	                                           identity; restructured nodes
//	                                           invalidate by Shape stamp
//	Update refit (pure drift)               -> per-entry slack consumption
//	SetCharges                              -> nothing (charges do not move
//	                                           geometry; Centroid/BRadius
//	                                           and box extents are charge-
//	                                           free, and Center/Radius are
//	                                           refreshed only by Update)
//
// Repair is lazy and races nothing: the evaluation workers own disjoint
// plan slots (one per target leaf), so the sched.Run fan-out that balances
// leaf tasks also balances plan repair without locks.

import (
	"math"
	"runtime"
	"time"

	"treecode/internal/sched"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// planKind classifies one cached traversal decision.
type planKind uint8

const (
	// planM2P: the whole target leaf provably accepts the node; it serves
	// the shared far-field list. Slack is the accept margin
	// alpha*(r-rho) - extent.
	planM2P planKind = iota
	// planBand: neither sphere test held; every particle re-tests the
	// exact MAC. Slack is the distance to the nearer of the two
	// boundaries — crossing either one changes the classification.
	planBand
	// planP2P: the whole leaf provably rejects a source leaf; direct
	// summation. Slack is the reject margin extent - alpha*(r+rho).
	planP2P
	// planOpen: the whole leaf provably rejects an internal node; the
	// traversal descended. Slack is the reject margin, and the entry's
	// span covers its DFS segment (the decisions below it).
	planOpen
)

// planEntry is one node's cached decision. span is the length of the
// entry's DFS segment including itself: 1 for terminal decisions, the
// whole descended-subtree segment for planOpen. A negative slack marks the
// entry invalid (revalidation writes -Inf); validity is sticky until the
// next repair re-collects the span.
type planEntry struct {
	node  *tree.Node
	slack float64
	span  int32
	kind  planKind
}

// leafPlan is one target leaf's cached interaction plan. A plan with no
// entries has never been built (or was dropped); invalid counts entries
// revalidation marked for repair. Entries are in DFS order, so filtering
// by kind reproduces the fresh collect's m2p/band/p2p list order exactly —
// the cached evaluation sums in the same order bitwise.
type leafPlan struct {
	leaf    *tree.Node
	entries []planEntry
	invalid int
}

// planSafety pads drift sums before they consume slack, covering the
// rounding of the drift and slack arithmetic itself. The margins at stake
// are O(geometry); a relative 1e-9 pad is orders of magnitude above the
// roundoff of the few additions involved and orders of magnitude below any
// slack worth keeping.
const planSafety = 1 + 1e-9

// revalidate consumes one Update's drift against every entry: entries
// whose node was restructured this pass (Shape == seq) or whose remaining
// slack is exhausted go invalid. Returns how many entries were checked and
// how many were newly invalidated. Runs without locks — the caller fans
// plans out over disjoint workers.
func (pl *leafPlan) revalidate(seq int64) (checked, invalidated int64) {
	if len(pl.entries) == 0 {
		return 0, 0
	}
	tgt := pl.leaf.TgtDrift * planSafety
	for i := range pl.entries {
		en := &pl.entries[i]
		checked++
		if en.slack < 0 {
			continue // already invalid from an earlier pass
		}
		if en.node.Shape == seq {
			en.slack = math.Inf(-1)
			pl.invalid++
			invalidated++
			continue
		}
		if d := en.node.SrcDrift*planSafety + tgt; d > 0 {
			en.slack -= d
			if en.slack <= 0 {
				en.slack = math.Inf(-1)
				pl.invalid++
				invalidated++
			}
		}
	}
	return checked, invalidated
}

// ensurePlans allocates the plan store for the current leaf list (plans
// build lazily, per leaf, on first evaluation). Called serially before the
// batched fan-out; Update keeps an existing store aligned via
// realignPlans, and construct drops it entirely.
func (e *Evaluator) ensurePlans() {
	if e.plans != nil {
		return
	}
	e.plans = make([]leafPlan, len(e.leaves))
	for i, leaf := range e.leaves {
		e.plans[i].leaf = leaf
	}
}

// realignPlans rebuilds the plan store for a changed leaf list, carrying
// over the plan of every leaf node that survived the restructuring (leaf
// identity is pointer identity: splits and merges produce different
// nodes, whose plans rebuild lazily).
func (e *Evaluator) realignPlans() {
	if e.plans == nil {
		return
	}
	old := e.plans
	byLeaf := make(map[*tree.Node]int, len(old))
	for i := range old {
		if len(old[i].entries) > 0 {
			byLeaf[old[i].leaf] = i
		}
	}
	plans := make([]leafPlan, len(e.leaves))
	for i, leaf := range e.leaves {
		plans[i].leaf = leaf
		if j, ok := byLeaf[leaf]; ok {
			plans[i].entries = old[j].entries
			plans[i].invalid = old[j].invalid
		}
	}
	e.plans = plans
}

// revalidatePlans runs the post-Update revalidation pass: realign the
// store if the decomposition changed, then consume the refresh's drift
// against every cached entry on the work-stealing pool (plans are disjoint
// per worker, so the pass is lock-free and, being pure bookkeeping,
// trivially schedule-invariant). Folds the checked/invalidated counters
// into the collector, which journals a plan-invalidate event when
// anything was lost.
func (e *Evaluator) revalidatePlans(migrants int) {
	if e.plans == nil {
		return
	}
	if migrants > 0 {
		e.realignPlans()
	}
	// A plan starts at the root it was collected from. When the pass grew
	// the root (tree.Update), the plan lacks the new root's decision and
	// the branches beside the old root: it empties, keeping its backing
	// array, and the next evaluation re-collects it.
	var dropped int64
	for i := range e.plans {
		if pl := &e.plans[i]; len(pl.entries) > 0 && pl.entries[0].node != e.Tree.Root {
			pl.entries, pl.invalid = pl.entries[:0], 0
			dropped++
		}
	}
	if dropped > 0 {
		e.Cfg.Obs.AddPlanDrop("root grown", dropped)
	}
	seq := e.Tree.Seq()
	workers := e.Cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	checked := make([]int64, workers)
	invalidated := make([]int64, workers)
	sched.Run(len(e.plans), workers, func(id int, next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			c, inv := e.plans[i].revalidate(seq)
			checked[id] += c
			invalidated[id] += inv
		}
	})
	var totC, totInv int64
	for i := range checked {
		totC += checked[i]
		totInv += invalidated[i]
	}
	e.Cfg.Obs.AddPlanRevalidate(totC, totInv)
}

// acquire makes the worker's current leaf plan evaluable: a plan with no
// entries builds from scratch, a plan with invalidated entries repairs
// (valid entries copied, invalid spans re-collected), and an intact plan
// is served as-is — the steady-state hit path, which touches nothing and
// allocates nothing. Returns the up-to-date entry list.
func (w *batchWorker) acquire(pl *leafPlan) []planEntry {
	leaf := pl.leaf
	if len(pl.entries) == 0 {
		var start time.Time
		if w.shard != nil {
			start = time.Now()
		}
		pl.entries = w.collect(pl.entries[:0], w.e.Tree.Root, leaf.Centroid, leaf.BRadius)
		pl.invalid = 0
		if w.shard != nil {
			w.shard.PlanBuild(int64(len(pl.entries)), time.Since(start).Nanoseconds())
		}
		return pl.entries
	}
	if pl.invalid == 0 {
		if w.shard != nil {
			w.shard.PlanHit(int64(len(pl.entries)))
		}
		return pl.entries
	}
	var start time.Time
	if w.shard != nil {
		start = time.Now()
	}
	dst, reused, rebuilt := w.repairSeg(w.scratch[:0], pl.entries, 0, len(pl.entries), leaf.Centroid, leaf.BRadius)
	// Swap backing arrays: the repaired list becomes the plan, the old
	// list becomes the worker's scratch for its next repair. Every slice
	// has exactly one owner, so cross-eval worker reshuffling cannot
	// alias two plans.
	w.scratch = pl.entries
	pl.entries = dst
	pl.invalid = 0
	if w.shard != nil {
		w.shard.PlanRepair(reused, rebuilt, time.Since(start).Nanoseconds())
	}
	return pl.entries
}

// repairSeg re-derives the plan segment src[lo:hi) into dst: valid
// entries are copied verbatim (their decisions provably still hold), the
// spans of invalid entries are re-collected from the entry's node. The
// node of an invalid entry is always still attached to the tree — a
// detached node's old parent had its child list mutated, so the parent (an
// open entry in the same plan, by construction of the DFS segment) is
// Shape-stamped invalid and its re-collect covers the detached span before
// this loop ever reaches it. Returns the grown dst and the reused/rebuilt
// entry counts.
func (w *batchWorker) repairSeg(dst, src []planEntry, lo, hi int, c vec.V3, rho float64) ([]planEntry, int64, int64) {
	var reused, rebuilt int64
	for i := lo; i < hi; {
		en := src[i]
		if en.slack < 0 {
			before := len(dst)
			dst = w.collect(dst, en.node, c, rho)
			rebuilt += int64(len(dst) - before)
			i += int(en.span)
			continue
		}
		reused++
		if en.kind == planOpen {
			at := len(dst)
			dst = append(dst, en)
			var r2, b2 int64
			dst, r2, b2 = w.repairSeg(dst, src, i+1, i+int(en.span), c, rho)
			reused += r2
			rebuilt += b2
			dst[at].span = int32(len(dst) - at)
			i += int(en.span)
			continue
		}
		dst = append(dst, en)
		i++
	}
	return dst, reused, rebuilt
}
