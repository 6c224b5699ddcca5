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
// mac.MAC.SphereSlacks). Revalidation is then O(1) per entry: a
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
// An entry is 16 bytes: the node pointer, the slack as a float32 rounded
// toward -Inf, and one word holding kind and span. A stored slack never
// exceeds the float64 margin it stands for, so the rounding can only
// invalidate an entry earlier than the float64 margin would; the repair
// then re-collects it, and every plan still equals a fresh collect.
// Revalidation subtracts drift in float64 and rounds the remainder down
// again. Builds and repairs write into the worker's scratch and the plan
// keeps a copy (keep): a first build at exactly its length, a plan that
// outgrows its array with an eighth spare, so no plan carries
// append-doubling spare capacity.
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
	"fmt"
	"math"
	"runtime"
	"slices"
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

// planKindBits is the width of the kind field in planEntry.ks; the span
// takes the remaining bits, so planMaxSpan is the longest DFS segment (and
// hence the longest plan) an entry can describe.
const (
	planKindBits = 2
	planKindMask = 1<<planKindBits - 1
	planMaxSpan  = 1<<(32-planKindBits) - 1
)

// planEntry is one node's cached decision. The span, kept above the kind
// in ks, is the length of the entry's DFS segment including itself: 1 for
// terminal decisions, the whole descended-subtree segment for planOpen.
// slack is the decision's margin rounded toward -Inf (slackDown). A
// negative slack marks the entry invalid (revalidation writes -Inf);
// validity is sticky until the next repair re-collects the span.
type planEntry struct {
	node  *tree.Node
	slack float32
	ks    uint32
}

// newPlanEntry is the span-1 entry for decision k at node n with margin
// slack.
func newPlanEntry(n *tree.Node, k planKind, slack float64) planEntry {
	return planEntry{node: n, slack: slackDown(slack), ks: 1<<planKindBits | uint32(k)}
}

func (en *planEntry) kind() planKind { return planKind(en.ks & planKindMask) }

func (en *planEntry) span() int { return int(en.ks >> planKindBits) }

// setSpan stores the entry's segment length. A span outside [1,
// planMaxSpan] panics rather than wrap into the kind bits.
func (en *planEntry) setSpan(span int) {
	if uint(span-1) >= planMaxSpan {
		panic(fmt.Sprintf("core: plan span %d outside [1, %d]", span, planMaxSpan))
	}
	en.ks = uint32(span)<<planKindBits | en.ks&planKindMask
}

// planInvalid is the slack of an entry revalidation has given up on.
var planInvalid = float32(math.Inf(-1))

// slackDown rounds a margin to the largest float32 not above it, so a
// stored slack never overstates the margin it stands for. Margins above
// MaxFloat32, +Inf included, store MaxFloat32; -Inf stays -Inf.
//
// The correction is branch-free: whether the round-to-nearest conversion
// landed above s is close to a coin flip, and a branch on it (with
// math.Nextafter32) made the revalidation pass about three times slower.
func slackDown(s float64) float32 {
	if s > math.MaxFloat32 {
		return math.MaxFloat32
	}
	f := float32(s)
	var over uint32
	if float64(f) > s {
		over = 1
	}
	// One float32 step toward -Inf: the bits step down for a positive f
	// and up for a negative one (-0 becomes -SmallestNonzeroFloat32 and
	// -MaxFloat32 becomes -Inf).
	b := math.Float32bits(f)
	return math.Float32frombits(b + over*(b>>31<<1-1))
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
			en.slack = planInvalid
			pl.invalid++
			invalidated++
			continue
		}
		if d := en.node.SrcDrift*planSafety + tgt; d > 0 {
			if s := float64(en.slack) - d; s > 0 {
				en.slack = slackDown(s)
			} else {
				en.slack = planInvalid
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

// realignPlans carries the plan store over to a changed leaf list: the
// plan of every leaf node that survived the restructuring moves to the
// leaf's new index (leaf identity is pointer identity: splits and merges
// produce different nodes, whose plans rebuild lazily). When migrants
// changed no leaf, the list is unchanged and nothing moves. The index map
// and the second plan array are the evaluator's and are reused, so a
// realignment allocates only when the leaf count outgrows them.
func (e *Evaluator) realignPlans() {
	old := e.plans
	if old == nil || slices.EqualFunc(old, e.leaves, func(pl leafPlan, leaf *tree.Node) bool { return pl.leaf == leaf }) {
		return
	}
	if e.planIndex == nil {
		e.planIndex = make(map[*tree.Node]int, len(old))
	}
	byLeaf := e.planIndex
	for i := range old {
		if len(old[i].entries) > 0 {
			byLeaf[old[i].leaf] = i
		}
	}
	plans := slices.Grow(e.sparePlans[:0], len(e.leaves))[:len(e.leaves)]
	for i, leaf := range e.leaves {
		plans[i] = leafPlan{leaf: leaf}
		if j, ok := byLeaf[leaf]; ok {
			plans[i].entries = old[j].entries
			plans[i].invalid = old[j].invalid
		}
	}
	// Drop the old array's and the map's references to plans and nodes;
	// both are reused by the next realignment.
	clear(old)
	clear(byLeaf)
	e.plans, e.sparePlans = plans, old[:0]
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
// allocates nothing. Builds and repairs write into the worker's scratch,
// and the plan keeps a copy (keep). Returns the up-to-date entry list.
func (w *batchWorker) acquire(pl *leafPlan) []planEntry {
	leaf := pl.leaf
	if len(pl.entries) == 0 {
		var start time.Time
		if w.shard != nil {
			start = time.Now()
		}
		w.scratch = w.collect(w.scratch[:0], w.e.Tree.Root, leaf.Centroid, leaf.BRadius)
		pl.keep(w.scratch)
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
	var reused, rebuilt int64
	w.scratch, reused, rebuilt = w.repairSeg(w.scratch[:0], pl.entries, 0, len(pl.entries), leaf.Centroid, leaf.BRadius)
	pl.keep(w.scratch)
	if w.shard != nil {
		w.shard.PlanRepair(reused, rebuilt, time.Since(start).Nanoseconds())
	}
	return pl.entries
}

// planGrowHeadroom sets the spare capacity a plan gets when a repair or
// rebuild outgrows the array it already has: 1/planGrowHeadroom of its new
// length. Without it, a plan that gains one entry reallocates whole, and
// under an N-body step (a third of the plans repaired, each gaining under
// one entry on average) that made the bytes allocated per step follow how
// many plans happened to grow. An eighth lasts a plan many such repairs,
// and cost 11% more heap there than exact regrowth.
const planGrowHeadroom = 8

// keep makes entries the plan's valid entry list, copied into the plan's
// own backing array when it is large enough. A first build gets an array
// of exactly its length; a plan that outgrows its array gets a new one
// with planGrowHeadroom spare. entries is the worker's scratch, so the
// plan never shares it.
func (pl *leafPlan) keep(entries []planEntry) {
	if n := len(entries); cap(pl.entries) < n {
		c := n
		if cap(pl.entries) > 0 {
			c += n / planGrowHeadroom
		}
		pl.entries = make([]planEntry, n, c)
	}
	pl.entries = pl.entries[:len(entries)]
	copy(pl.entries, entries)
	pl.invalid = 0
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
			i += en.span()
			continue
		}
		reused++
		if en.kind() == planOpen {
			at := len(dst)
			dst = append(dst, en)
			var r2, b2 int64
			dst, r2, b2 = w.repairSeg(dst, src, i+1, i+en.span(), c, rho)
			reused += r2
			rebuilt += b2
			dst[at].setSpan(len(dst) - at)
			i += en.span()
			continue
		}
		dst = append(dst, en)
		i++
	}
	return dst, reused, rebuilt
}
