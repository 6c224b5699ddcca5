package core

// Leaf-batched dual-tree evaluation (Config.Eval == EvalBatched).
//
// The per-particle walk traverses the octree once per target; with leaves of
// c particles each, neighbouring targets repeat almost identical traversals
// c times. The batched mode traverses once per *target leaf* instead,
// testing the MAC conservatively against the leaf's geometric bounding
// sphere (Centroid, BRadius):
//
//   - AcceptSphere (extent <= alpha*(r - rho)): every point of the sphere
//     satisfies the per-particle criterion, so the cluster joins a shared
//     far-field (M2P) list consumed by all particles of the leaf without
//     further tests.
//   - RejectSphere (extent > alpha*(r + rho)): every point fails the
//     criterion, so the walk would open the node for each particle; an
//     internal node descends, a source leaf joins the shared near-field
//     (P2P) list.
//   - Otherwise the cluster is in the refinement band between the two
//     bounds: each particle applies the exact per-particle MAC, descending
//     where it rejects — precisely what the walk does.
//
// Because the sphere tests are conservative in both directions, the
// per-particle interaction set is *identical* to the walk's: batched mode
// never accepts an interaction the per-particle criterion would reject
// (Theorem 2's error budget is untouched) and never opens a node the walk
// would accept (no extra work, only amortized traversal). The two modes
// differ solely in summation order.
//
// The traversal's outcome — the classified decision list per target leaf —
// persists on the evaluator between calls as an interaction *plan*
// (plan.go) and is revalidated, not re-derived, across Evaluator.Update:
// the steady-state force call pays no traversal at all. Collect runs on an
// explicit per-worker stack (deep refined trees cannot overflow goroutine
// stacks, and the hot path pays no call overhead), classifies from
// mac.MAC.SphereSlacks — whose signs reproduce the boolean sphere tests
// exactly — and emits the flat DFS plan the cached evaluation
// replays in the fresh traversal's order bitwise.
//
// Leaf tasks are wildly uneven for clustered distributions; the
// work-stealing scheduler in internal/sched, which also runs the walk's
// target chunks (fanOut), balances them. Results are independent of the
// schedule bitwise: each particle's contributions are summed in the
// deterministic per-leaf list order, whichever worker runs the leaf.

import (
	"sync"

	"treecode/internal/obs"
	"treecode/internal/sched"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// batchWorker extends the walk worker with the plan-traversal scratch.
// The scratch is reused across leaf tasks (truncated, never reallocated
// once grown) and, through the evaluator's pool, across evaluations, so
// steady-state leaf processing performs no allocations.
type batchWorker struct {
	worker
	// active is the per-particle target mask of a FieldsFor evaluation
	// (original index order); nil means every particle is a target.
	active []bool
	*planScratch
	// Refinement-band tallies for the current leaf, flushed to the shard
	// once per leaf.
	refChecks  int64
	refAccepts int64
}

// planScratch is a batch worker's traversal scratch: stack backs the
// explicit-DFS collect; scratch receives built and repaired plans before
// the plan keeps a copy.
type planScratch struct {
	stack   []planFrame
	scratch []planEntry
}

// planFrame is one explicit-stack slot of collect: a node still to
// classify, or — when n is nil — a close marker patching the span of the
// open entry at index patch once its subtree segment is complete.
type planFrame struct {
	n     *tree.Node
	patch int
}

// fanOut runs tasks 0..count-1 of one evaluation on the work-stealing
// scheduler — the walk's target chunks and the batched mode's target
// leaves alike. Each goroutine gets one batchWorker, with its own obs shard
// and "worker" span under parent, and plan scratch from the evaluator's
// pool; at the end its stats merge into stats and its shard into the
// collector. active is the per-particle target mask the batched particle
// loops consult (nil for every particle). Tasks write disjoint outputs, so
// results are bitwise independent of the schedule.
func (e *Evaluator) fanOut(count, workers int, active []bool, parent *obs.Span, stats *Stats, task func(w *batchWorker, t int)) sched.Stats {
	var mu sync.Mutex
	return sched.Run(count, workers, func(id int, next func() (int, bool)) {
		sp := parent.ChildWorker("worker", id)
		ps, _ := e.scratchPool.Get().(*planScratch)
		if ps == nil {
			ps = new(planScratch)
		}
		w := &batchWorker{
			worker:      worker{e: e, shard: e.Cfg.Obs.NewShard()},
			active:      active,
			planScratch: ps,
		}
		for t, ok := next(); ok; t, ok = next() {
			task(w, t)
		}
		e.scratchPool.Put(ps)
		mu.Lock()
		stats.add(&w.stats)
		mu.Unlock()
		w.shard.Merge()
		sp.End()
	})
}

// batchedOver drives one batched evaluation: the leaves of an explicit
// task list of leaf indices (nil means every leaf) as fanOut tasks, with an
// optional per-particle target mask the workers consult in their particle
// loops (FieldsFor), and the scheduler's steal count folded into the batch
// metrics. The body receives the leaf's index into e.leaves/e.plans so
// workers address their plan slots directly; slots are disjoint per task,
// so plan builds and repairs race nothing. Leaves absent from the task
// list are never touched, so their cached plans stay exactly as the last
// pass left them.
func (e *Evaluator) batchedOver(tasks []int, active []bool, workers int, parent *obs.Span, stats *Stats, body func(w *batchWorker, li int)) {
	e.ensurePlans()
	count := len(e.leaves)
	if tasks != nil {
		count = len(tasks)
	}
	st := e.fanOut(count, workers, active, parent, stats, func(w *batchWorker, t int) {
		if tasks != nil {
			t = tasks[t]
		}
		body(w, t)
	})
	e.Cfg.Obs.AddSteals(st.Steals)
}

// collect classifies the subtree at root against the target leaf's bounding
// sphere, appending the flat DFS-ordered plan to dst. Classification reads
// the signed sphere-test margins (SphereSlacks) so each entry carries the
// slack revalidation consumes later; the slack signs reproduce the
// AcceptSphere/RejectSphere booleans exactly, so the emitted decisions are
// the recursive traversal's bit for bit. The walk runs on the worker's
// explicit stack — reused across leaves, grown once — with nil-node close
// markers patching each open entry's span when its segment completes.
// Collect is pure classification; census accounting (bulk rejections,
// batch-leaf tallies) happens in the evaluation passes so cached and fresh
// plans record identical censuses.
//
//treecode:hot
func (w *batchWorker) collect(dst []planEntry, root *tree.Node, c vec.V3, rho float64) []planEntry {
	m := w.e.Cfg.MAC
	w.stack = append(w.stack[:0], planFrame{n: root})
	for len(w.stack) > 0 {
		f := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if f.n == nil {
			dst[f.patch].setSpan(len(dst) - f.patch)
			continue
		}
		n := f.n
		acc, rej := m.SphereSlacks(c, rho, n)
		switch {
		case acc >= 0: // == AcceptSphere
			dst = append(dst, newPlanEntry(n, planM2P, acc))
		case rej <= 0: // == !RejectSphere: refinement band
			slack := -rej
			if s := -acc; s < slack {
				slack = s
			}
			dst = append(dst, newPlanEntry(n, planBand, slack))
		case n.IsLeaf():
			dst = append(dst, newPlanEntry(n, planP2P, rej))
		default:
			dst = append(dst, newPlanEntry(n, planOpen, rej))
			w.stack = append(w.stack, planFrame{patch: len(dst) - 1})
			for i := len(n.Children) - 1; i >= 0; i-- {
				w.stack = append(w.stack, planFrame{n: n.Children[i]})
			}
		}
	}
	return dst
}

// leafPotentials evaluates the potentials of every particle in the target
// leaf at index li, acquiring (hitting, repairing or building) the leaf's
// cached plan first. Far-field clusters run in a cluster-outer loop so each
// expansion's coefficients stay hot across the leaf's particles; near-field
// leaves batch P2P over contiguous tree-order slices. The kind-filtered
// passes visit entries in plan (DFS) order, so the summation order is the
// fresh traversal's exactly.
//
//treecode:hot
func (w *batchWorker) leafPotentials(li int, out []float64) {
	pl := &w.e.plans[li]
	leaf := pl.leaf
	entries := w.acquire(pl)
	t := w.e.Tree
	w.census(entries, w.activeCount(leaf))
	w.refChecks = 0
	w.refAccepts = 0
	for k := range entries {
		if entries[k].kind() != planM2P {
			continue
		}
		n := entries[k].node
		for i := leaf.Start; i < leaf.End; i++ {
			if w.active != nil && !w.active[t.Perm[i]] {
				continue
			}
			out[t.Perm[i]] += w.acceptM2P(n, t.Pos[i])
		}
	}
	for k := range entries {
		if entries[k].kind() != planBand {
			continue
		}
		n := entries[k].node
		for i := leaf.Start; i < leaf.End; i++ {
			if w.active != nil && !w.active[t.Perm[i]] {
				continue
			}
			out[t.Perm[i]] += w.refine(n, t.Pos[i], i)
		}
	}
	for k := range entries {
		if entries[k].kind() != planP2P {
			continue
		}
		src := entries[k].node
		for i := leaf.Start; i < leaf.End; i++ {
			if w.active != nil && !w.active[t.Perm[i]] {
				continue
			}
			phi, pp := w.direct(src, t.Pos[i], i)
			out[t.Perm[i]] += phi
			w.stats.PP += pp
			if w.shard != nil {
				w.shard.Direct(src.Level, pp)
			}
		}
	}
	if w.shard != nil {
		w.shard.Refine(w.refChecks, w.refAccepts)
	}
}

// activeCount returns how many of the leaf's particles the current
// evaluation targets — the whole leaf outside FieldsFor.
func (w *batchWorker) activeCount(leaf *tree.Node) int64 {
	if w.active == nil {
		return int64(leaf.Count())
	}
	t := w.e.Tree
	var c int64
	for i := leaf.Start; i < leaf.End; i++ {
		if w.active[t.Perm[i]] {
			c++
		}
	}
	return c
}

// census records the per-leaf traversal census from the plan: one bulk
// rejection of the evaluated (active) particle count at every opened node
// and every directly-summed source leaf (matching the walk, which rejects
// once per particle there), and the shared-list batch tallies. Recorded
// per evaluation — not per collect — so a cached plan yields the same
// census a fresh traversal would.
func (w *batchWorker) census(entries []planEntry, count int64) {
	if w.shard == nil {
		return
	}
	var m2p int64
	for k := range entries {
		switch entries[k].kind() {
		case planM2P:
			m2p++
		case planP2P, planOpen:
			w.shard.RejectN(entries[k].node.Level, count)
		}
	}
	w.shard.BatchLeaf(m2p, m2p*count)
}

// refine applies the exact per-particle criterion to a refinement-band
// cluster — the walk's own accept/reject step, plus the band tallies.
//
//treecode:hot
func (w *batchWorker) refine(n *tree.Node, x vec.V3, self int) float64 {
	w.refChecks++
	if w.e.Cfg.MAC.Accept(x, n) {
		w.refAccepts++
		return w.acceptM2P(n, x)
	}
	if w.shard != nil {
		w.shard.Reject(n.Level)
	}
	return w.walkBelow(n, x, self)
}

// leafFields is leafPotentials' potential+field counterpart.
//
//treecode:hot
func (w *batchWorker) leafFields(li int, phi []float64, field []vec.V3) {
	pl := &w.e.plans[li]
	leaf := pl.leaf
	entries := w.acquire(pl)
	t := w.e.Tree
	w.census(entries, w.activeCount(leaf))
	w.refChecks = 0
	w.refAccepts = 0
	for k := range entries {
		if entries[k].kind() != planM2P {
			continue
		}
		n := entries[k].node
		for i := leaf.Start; i < leaf.End; i++ {
			if w.active != nil && !w.active[t.Perm[i]] {
				continue
			}
			p, f := w.acceptM2PField(n, t.Pos[i])
			phi[t.Perm[i]] += p
			field[t.Perm[i]] = field[t.Perm[i]].Add(f)
		}
	}
	for k := range entries {
		if entries[k].kind() != planBand {
			continue
		}
		n := entries[k].node
		for i := leaf.Start; i < leaf.End; i++ {
			if w.active != nil && !w.active[t.Perm[i]] {
				continue
			}
			p, f := w.refineField(n, t.Pos[i], i)
			phi[t.Perm[i]] += p
			field[t.Perm[i]] = field[t.Perm[i]].Add(f)
		}
	}
	for k := range entries {
		if entries[k].kind() != planP2P {
			continue
		}
		src := entries[k].node
		for i := leaf.Start; i < leaf.End; i++ {
			if w.active != nil && !w.active[t.Perm[i]] {
				continue
			}
			p, f, pp := w.directField(src, t.Pos[i], i)
			phi[t.Perm[i]] += p
			field[t.Perm[i]] = field[t.Perm[i]].Add(f)
			w.stats.PP += pp
			if w.shard != nil {
				w.shard.Direct(src.Level, pp)
			}
		}
	}
	if w.shard != nil {
		w.shard.Refine(w.refChecks, w.refAccepts)
	}
}

// refineField is refine's potential+field counterpart.
//
//treecode:hot
func (w *batchWorker) refineField(n *tree.Node, x vec.V3, self int) (float64, vec.V3) {
	w.refChecks++
	if w.e.Cfg.MAC.Accept(x, n) {
		w.refAccepts++
		return w.acceptM2PField(n, x)
	}
	if w.shard != nil {
		w.shard.Reject(n.Level)
	}
	return w.walkFieldBelow(n, x, self)
}
