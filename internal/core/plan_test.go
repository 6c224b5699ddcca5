package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"treecode/internal/mac"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// comparePlanStructure asserts two plan stores hold the same decisions for
// the same leaves: identical node pointers, kinds, and spans in identical
// DFS order. Slacks are excluded — a revalidated plan carries consumed
// slack, a fresh collect carries the current full margin — because slack
// never feeds the evaluation, only the next revalidation.
func comparePlanStructure(t *testing.T, label string, cached, fresh []leafPlan) {
	t.Helper()
	if len(cached) != len(fresh) {
		t.Fatalf("%s: plan stores cover %d vs %d leaves", label, len(cached), len(fresh))
	}
	for i := range cached {
		c, f := &cached[i], &fresh[i]
		if c.leaf != f.leaf {
			t.Fatalf("%s: plan %d targets different leaves", label, i)
		}
		if len(c.entries) != len(f.entries) {
			t.Fatalf("%s: leaf %d plan has %d entries cached, %d fresh", label, i, len(c.entries), len(f.entries))
		}
		for k := range c.entries {
			ce, fe := c.entries[k], f.entries[k]
			if ce.node != fe.node || ce.ks != fe.ks {
				t.Fatalf("%s: leaf %d entry %d differs: cached {node %p kind %d span %d}, fresh {node %p kind %d span %d}",
					label, i, k, ce.node, ce.kind(), ce.span(), fe.node, fe.kind(), fe.span())
			}
		}
	}
}

// checkSlackBounds asserts the invariant revalidation relies on: every
// entry a repair would reuse (valid, and outside the span of an invalid
// entry) stores a slack no larger than the margin SphereSlacks gives for
// the same decision on the current geometry. A stored slack above that
// margin would let drift carry a cached decision across its boundary.
func checkSlackBounds(t *testing.T, label string, e *Evaluator) {
	t.Helper()
	crit := e.Cfg.MAC
	for li := range e.plans {
		pl := &e.plans[li]
		for k := 0; k < len(pl.entries); {
			en := &pl.entries[k]
			if en.slack < 0 {
				k += en.span()
				continue
			}
			acc, rej := crit.SphereSlacks(pl.leaf.Centroid, pl.leaf.BRadius, en.node)
			margin := rej
			switch en.kind() {
			case planM2P:
				margin = acc
			case planBand:
				margin = math.Min(-rej, -acc)
			}
			if float64(en.slack) > margin {
				t.Fatalf("%s: leaf %d entry %d (kind %d) stores slack %g above its current margin %g",
					label, li, k, en.kind(), en.slack, margin)
			}
			k++
		}
	}
}

// scrambledPositions teleports half the particles uniformly inside the root
// box — enough churn to trip the drift policy into a full rebuild.
func scrambledPositions(e *Evaluator, rng *rand.Rand) []vec.V3 {
	box := e.Tree.Root.Box
	sz := box.Size()
	pos := newPositions(e, nil, 0)
	for i := range pos {
		if i%2 == 0 {
			pos[i] = vec.V3{
				X: box.Lo.X + rng.Float64()*sz.X,
				Y: box.Lo.Y + rng.Float64()*sz.Y,
				Z: box.Lo.Z + rng.Float64()*sz.Z,
			}
		}
	}
	return pos
}

// TestPlanCacheMultiStepDriftBitwise is the plan cache's correctness
// anchor: across a drift trajectory that exercises every maintenance path —
// identity refit, migrating refits that repair plans, and a scramble that
// forces the full-rebuild fallback — the cached-plan evaluation after each
// Evaluator.Update must be bitwise identical to a from-scratch dual-tree
// traversal of the same engine state, and the surviving plans must be
// structurally identical (same decisions, same DFS order) to plans
// collected fresh. This is why the batched mode's Theorem 2 budget
// transfers verbatim to the cached evaluation: the cache changes when
// traversal runs, never what it decides. After every Update and every
// cached evaluation, each reusable entry's stored slack must also stay at
// or below its decision's current margin (checkSlackBounds).
func TestPlanCacheMultiStepDriftBitwise(t *testing.T) {
	set, err := points.Generate(points.Plummer, 1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	cfg := Config{Method: Adaptive, Degree: 4, Alpha: 0.5, Eval: EvalBatched, Workers: 2, Obs: col}
	e, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Potentials() // build every leaf's plan

	rng := rand.New(rand.NewSource(33))
	sigmas := []float64{0, 1e-3, 1e-3, 2e-3, -1} // -1: scramble -> full rebuild
	var sawRefit, sawFull bool
	for step, sigma := range sigmas {
		pos := newPositions(e, rng, sigma)
		if sigma < 0 {
			pos = scrambledPositions(e, rng)
		}
		kind, err := e.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case RebuildRefit:
			sawRefit = true
		case RebuildFull:
			sawFull = true
		}
		label := fmt.Sprintf("step %d (%v)", step, kind)
		checkSlackBounds(t, label+" after Update", e)

		phiCached, stCached := e.Potentials()
		checkSlackBounds(t, label+" after evaluation", e)
		// From-scratch reference on the identical engine state: drop the
		// store, re-evaluate (which re-collects every plan), then restore
		// the cached store so the trajectory keeps exercising repair.
		cached := e.plans
		e.plans = nil
		phiFresh, stFresh := e.Potentials()
		comparePlanStructure(t, label, cached, e.plans)
		bitsEqual(t, phiCached, phiFresh, label)
		if stCached.Terms != stFresh.Terms || stCached.PC != stFresh.PC || stCached.PP != stFresh.PP {
			t.Fatalf("%s: stats diverge: cached {Terms %d PC %d PP %d}, fresh {Terms %d PC %d PP %d}",
				label, stCached.Terms, stCached.PC, stCached.PP, stFresh.Terms, stFresh.PC, stFresh.PP)
		}
		e.plans = cached
	}
	if !sawRefit || !sawFull {
		t.Fatalf("trajectory missed a maintenance path: refit=%v full=%v", sawRefit, sawFull)
	}
	pm := col.Metrics().Plan
	if pm.LeafBuilds == 0 || pm.LeafHits == 0 || pm.LeafRepairs == 0 {
		t.Fatalf("trajectory missed a plan pathway: %+v", pm)
	}
	if pm.Drops == 0 {
		t.Fatalf("full rebuild did not drop the plan store: %+v", pm)
	}
	if pm.EntriesReused == 0 {
		t.Fatalf("no plan entries reused across the drift run: %+v", pm)
	}
}

// TestPlanCacheRootGrowthBitwise follows one particle flying out of the
// cluster at a constant step of a fifth of the root's side, as a particle
// ejected by a close encounter does. Every Update must refit, growing the
// root when the particle leaves it, never fall back to a full rebuild, and
// after each one the cached-plan evaluation must be bitwise identical to a
// from-scratch traversal of the same engine state. At the end the refitted
// potentials must agree with a fresh build's within the two budgets.
func TestPlanCacheRootGrowthBitwise(t *testing.T) {
	set, err := points.Generate(points.Plummer, 1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	cfg := Config{Method: Adaptive, Degree: 4, Alpha: 0.5, Eval: EvalBatched, Workers: 2, Obs: col}
	e, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Potentials() // build every leaf's plan

	box := e.Tree.Root.Box
	step := box.MaxDim() / 5
	var pos []vec.V3
	for k := 1; k <= 12; k++ {
		pos = newPositions(e, nil, 0)
		pos[0] = vec.V3{X: box.Hi.X + float64(k-1)*step, Y: box.Center().Y, Z: box.Center().Z}
		kind, err := e.Update(pos)
		if err != nil {
			t.Fatal(err)
		}
		if kind != RebuildRefit {
			t.Fatalf("step %d: escaping particle forced %v", k, kind)
		}
		label := fmt.Sprintf("step %d", k)
		phiCached, stCached := e.Potentials()
		cached := e.plans
		e.plans = nil
		phiFresh, stFresh := e.Potentials()
		comparePlanStructure(t, label, cached, e.plans)
		bitsEqual(t, phiCached, phiFresh, label)
		if stCached.Terms != stFresh.Terms || stCached.PC != stFresh.PC || stCached.PP != stFresh.PP {
			t.Fatalf("%s: stats diverge: cached {Terms %d PC %d PP %d}, fresh {Terms %d PC %d PP %d}",
				label, stCached.Terms, stCached.PC, stCached.PP, stFresh.Terms, stFresh.PC, stFresh.PP)
		}
		e.plans = cached
	}
	if n := col.EventCounts()[obs.EventRootGrow]; n < 2 {
		t.Fatalf("trajectory grew the root %d times, want at least 2", n)
	}
	if m := col.Metrics(); m.Refit.Rebuilds != 0 || m.Plan.Drops == 0 {
		t.Fatalf("root growth rebuilt or kept stale plans: refit %+v, plan %+v", m.Refit, m.Plan)
	}

	phi, st := e.Potentials()
	fresh, err := New(setAt(e, pos), Config{Method: Adaptive, Degree: 4, Alpha: 0.5, Eval: EvalBatched, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	phiF, stF := fresh.Potentials()
	var diff2 float64
	for i := range phi {
		d := phi[i] - phiF[i]
		diff2 += d * d
	}
	if diff := math.Sqrt(diff2); diff > st.BoundSum+stF.BoundSum {
		t.Fatalf("grown-root vs fresh L2 gap %g exceeds combined budget %g", diff, st.BoundSum+stF.BoundSum)
	}
}

// TestPlanCacheSetChargesKeepsPlans pins the invalidation lattice's finest
// level: recharging moves no geometry, so plans survive SetCharges intact
// and the following evaluation is all hits.
func TestPlanCacheSetChargesKeepsPlans(t *testing.T) {
	set, err := points.Generate(points.Gaussian, 1000, 19)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	e, err := New(set, Config{Method: Adaptive, Degree: 4, Eval: EvalBatched, Workers: 2, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	e.Potentials()
	builds := col.Metrics().Plan.LeafBuilds
	if builds == 0 {
		t.Fatal("first evaluation built no plans")
	}
	q := make([]float64, set.N())
	for i := range q {
		q[i] = float64(i%7) - 3.1
	}
	if err := e.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	e.Potentials()
	pm := col.Metrics().Plan
	if pm.LeafBuilds != builds || pm.LeafRepairs != 0 {
		t.Fatalf("SetCharges disturbed the plan store: %+v (want builds pinned at %d, zero repairs)", pm, builds)
	}
	if pm.LeafHits != builds {
		t.Fatalf("post-recharge evaluation hit %d plans, want all %d", pm.LeafHits, builds)
	}
}

// TestPlanEntrySetMatchesReferenceTraversal checks a built plan against an
// independent recursive classification using only the boolean sphere tests
// — the API the slack-sign classification must reproduce exactly.
func TestPlanEntrySetMatchesReferenceTraversal(t *testing.T) {
	for _, m := range []mac.MAC{mac.Alpha{Alpha: 0.6}, mac.BoxAlpha{Alpha: 0.8}, mac.MinDist{Alpha: 0.7}} {
		t.Run(m.String(), func(t *testing.T) {
			set, err := points.Generate(points.MultiGauss, 1100, 7)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(set, Config{Method: Adaptive, Degree: 3, Alpha: 0.5, MAC: m, Eval: EvalBatched})
			if err != nil {
				t.Fatal(err)
			}
			e.Potentials()
			crit := e.Cfg.MAC
			for li, pl := range e.plans {
				var want []planEntry
				var ref func(n *tree.Node)
				ref = func(n *tree.Node) {
					c, rho := pl.leaf.Centroid, pl.leaf.BRadius
					switch {
					case crit.AcceptSphere(c, rho, n):
						want = append(want, newPlanEntry(n, planM2P, 0))
					case !crit.RejectSphere(c, rho, n):
						want = append(want, newPlanEntry(n, planBand, 0))
					case n.IsLeaf():
						want = append(want, newPlanEntry(n, planP2P, 0))
					default:
						at := len(want)
						want = append(want, newPlanEntry(n, planOpen, 0))
						for _, ch := range n.Children {
							ref(ch)
						}
						want[at].setSpan(len(want) - at)
					}
				}
				ref(e.Tree.Root)
				if len(pl.entries) != len(want) {
					t.Fatalf("leaf %d: plan has %d entries, reference traversal %d", li, len(pl.entries), len(want))
				}
				for k := range want {
					g, w := pl.entries[k], want[k]
					if g.node != w.node || g.ks != w.ks {
						t.Fatalf("leaf %d entry %d: plan {node %p kind %d span %d}, reference {node %p kind %d span %d}",
							li, k, g.node, g.kind(), g.span(), w.node, w.kind(), w.span())
					}
				}
			}
		})
	}
}

// TestPlanCacheRepairRace drives concurrent plan repair under the race
// detector: every Update invalidates a scattering of entries, and the next
// evaluation fans the repairs out over the work-stealing pool — workers own
// disjoint plan slots, so the pass must be lock-free-clean. Bitwise
// agreement with a serial evaluation of a twin engine double-checks that
// stealing never reorders a repaired plan's summation.
func TestPlanCacheRepairRace(t *testing.T) {
	set, err := points.Generate(points.Plummer, 1200, 13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Method: Adaptive, Degree: 3, Alpha: 0.5, Eval: EvalBatched}
	e, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.PotentialsWithWorkers(2 * runtime.GOMAXPROCS(0))
	twin.PotentialsWithWorkers(1)
	rng := rand.New(rand.NewSource(41))
	for step := 0; step < 3; step++ {
		pos := newPositions(e, rng, 1.5e-3)
		if _, err := e.Update(pos); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Update(pos); err != nil {
			t.Fatal(err)
		}
		phi, _ := e.PotentialsWithWorkers(2 * runtime.GOMAXPROCS(0))
		want, _ := twin.PotentialsWithWorkers(1)
		bitsEqual(t, phi, want, fmt.Sprintf("race step %d", step))
	}
}

// TestSlackDown pins the slack store's rounding: the stored float32 is the
// largest one not above the margin, so revalidation can only invalidate
// an entry earlier than its float64 margin would.
func TestSlackDown(t *testing.T) {
	const tiny32 = math.SmallestNonzeroFloat32
	const maxF = float64(math.MaxFloat32)
	for _, c := range []struct {
		in   float64
		want float32
	}{
		{0, 0},
		{math.Copysign(0, -1), 0},
		{math.SmallestNonzeroFloat64, 0},
		{-math.SmallestNonzeroFloat64, -tiny32},
		{1e-310, 0},
		{tiny32, tiny32},
		{1.5 * tiny32, tiny32},
		{-1.5 * tiny32, -2 * tiny32},
		{0.1, math.Nextafter32(0.1, 0)},
		{-0.1, -0.1},
		{1, 1},
		{maxF, math.MaxFloat32},
		{math.Nextafter(maxF, math.Inf(1)), math.MaxFloat32},
		{1e39, math.MaxFloat32},
		{math.MaxFloat64, math.MaxFloat32},
		{math.Inf(1), math.MaxFloat32},
		{-maxF, -math.MaxFloat32},
		{-1e39, float32(math.Inf(-1))},
		{math.Inf(-1), float32(math.Inf(-1))},
	} {
		if got := slackDown(c.in); got != c.want {
			t.Errorf("slackDown(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		in := math.Ldexp(rng.Float64(), rng.Intn(2100)-1075)
		if i%2 == 1 {
			in = -in
		}
		got := slackDown(in)
		if float64(got) > in || math.IsInf(float64(got), 1) {
			t.Fatalf("slackDown(%g) = %g rounds above its input", in, got)
		}
		if up := math.Nextafter32(got, float32(math.Inf(1))); float64(up) <= in {
			t.Fatalf("slackDown(%g) = %g, but %g is closer and not above", in, got, up)
		}
	}
}

// TestPlanEntryKindSpan round-trips every kind with the shortest and the
// longest span the entry's word can hold, and checks that a span outside
// that range panics instead of wrapping into the kind bits.
func TestPlanEntryKindSpan(t *testing.T) {
	n := &tree.Node{}
	for _, k := range []planKind{planM2P, planBand, planP2P, planOpen} {
		en := newPlanEntry(n, k, 0.25)
		if en.kind() != k || en.span() != 1 {
			t.Fatalf("new entry: kind %d span %d, want %d and 1", en.kind(), en.span(), k)
		}
		for _, span := range []int{planMaxSpan, 1, 2, planMaxSpan - 1} {
			en.setSpan(span)
			if en.kind() != k || en.span() != span || en.node != n || en.slack != 0.25 {
				t.Fatalf("kind %d span %d came back as node %p kind %d span %d slack %g",
					k, span, en.node, en.kind(), en.span(), en.slack)
			}
		}
	}
	for _, span := range []int{planMaxSpan + 1, 0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("setSpan(%d) did not panic", span)
				}
			}()
			en := newPlanEntry(n, planOpen, 1)
			en.setSpan(span)
		}()
	}
}

// TestPlanEntryLayout pins the plan store's footprint: 16-byte entries,
// and after a cold evaluation every plan held at exactly its length. A new
// field or an append path that keeps spare capacity fails here.
func TestPlanEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(planEntry{}); size != 16 {
		t.Fatalf("planEntry is %d bytes, want 16", size)
	}
	set, err := points.Generate(points.Gaussian, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEval(t, set, Config{Method: Adaptive, Degree: 4, Alpha: 0.5, Eval: EvalBatched, Workers: 2})
	e.Potentials()
	for li, pl := range e.plans {
		if len(pl.entries) == 0 || cap(pl.entries) != len(pl.entries) {
			t.Fatalf("leaf %d plan has len %d cap %d, want cap == len > 0", li, len(pl.entries), cap(pl.entries))
		}
	}
}

// TestPlanKeepCapacity pins how a plan stores a built or repaired list: a
// first build at exactly its length, a plan that outgrows its array with
// 1/planGrowHeadroom spare, and a list that fits the array it already has
// in place, without allocating.
func TestPlanKeepCapacity(t *testing.T) {
	src := make([]planEntry, 400)
	for i := range src {
		src[i] = newPlanEntry(nil, planM2P, float64(i))
	}
	var pl leafPlan
	pl.keep(src[:320])
	if len(pl.entries) != 320 || cap(pl.entries) != 320 {
		t.Fatalf("first build: len %d cap %d, want 320 320", len(pl.entries), cap(pl.entries))
	}
	pl.invalid = 3
	pl.keep(src[:321])
	if want := 321 + 321/planGrowHeadroom; len(pl.entries) != 321 || cap(pl.entries) != want {
		t.Fatalf("grown plan: len %d cap %d, want 321 %d", len(pl.entries), cap(pl.entries), want)
	}
	if pl.invalid != 0 {
		t.Fatalf("keep left invalid = %d, want 0", pl.invalid)
	}
	array := &pl.entries[:1][0]
	for _, n := range []int{cap(pl.entries), 100} {
		if allocs := testing.AllocsPerRun(10, func() { pl.keep(src[:n]) }); allocs != 0 {
			t.Fatalf("keep of %d entries into a plan of cap %d allocated %v times", n, cap(pl.entries), allocs)
		}
		if &pl.entries[:1][0] != array || len(pl.entries) != n {
			t.Fatalf("keep of %d entries: len %d, array moved %v", n, len(pl.entries), &pl.entries[:1][0] != array)
		}
		for i := range pl.entries {
			if pl.entries[i] != src[i] {
				t.Fatalf("keep of %d entries: entry %d = %+v, want %+v", n, i, pl.entries[i], src[i])
			}
		}
	}
}

// BenchmarkPlanBuild times one cold batched evaluation of the 10k Gaussian
// (every leaf plan collected from scratch, then evaluated) and reports the
// plan store's bytes per entry and the collect time per entry, summed over
// the workers.
func BenchmarkPlanBuild(b *testing.B) {
	set, err := points.Generate(points.Gaussian, 10000, 1)
	if err != nil {
		b.Fatal(err)
	}
	col := obs.New()
	e, err := New(set, Config{Method: Adaptive, Degree: 4, Alpha: 0.5, Eval: EvalBatched, Obs: col})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.plans = nil
		e.Potentials()
	}
	b.StopTimer()
	var entries, bytes int
	for _, pl := range e.plans {
		entries += len(pl.entries)
		bytes += cap(pl.entries) * int(unsafe.Sizeof(planEntry{}))
	}
	pm := col.Metrics().Plan
	b.ReportMetric(float64(bytes)/float64(entries), "B/entry")
	b.ReportMetric(float64(pm.CollectNS)/float64(pm.EntriesRebuilt), "ns/entry")
}
