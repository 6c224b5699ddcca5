package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"treecode/internal/direct"
	"treecode/internal/mac"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// batchedDists are the paper's three benchmark distributions; the batched
// traversal must be equivalent to the walk on all of them.
var batchedDists = []points.Distribution{points.Uniform, points.Gaussian, points.MultiGauss}

// interaction is a canonical key for one element of a particle's
// interaction set: either an accepted cluster (node identity + evaluation
// degree) or a directly-summed source particle.
type interaction struct {
	node   *tree.Node
	degree int
	src    int // tree-order source index for P2P; -1 for M2P
}

// walkSet collects the per-particle interaction set of the reference walk.
func walkSet(e *Evaluator, x vec.V3, self int) map[interaction]int {
	set := map[interaction]int{}
	e.VisitInteractions(x, self,
		func(n *tree.Node, d int) { set[interaction{n, d, -1}]++ },
		func(j int) { set[interaction{nil, 0, j}]++ })
	return set
}

// visitBatchedInteractions reports the interaction set the batched
// traversal produces for every particle of one target leaf: cluster is
// called with the particle's tree-order index, the accepted node and its
// evaluation degree; particle with the target and source tree-order
// indices. It re-traverses recursively with the boolean sphere tests,
// independent of the plan machinery, so TestBatchedInteractionSetMatchesWalk
// checks the classification itself.
func visitBatchedInteractions(e *Evaluator, leaf *tree.Node,
	cluster func(i int, n *tree.Node, degree int), particle func(i, j int)) {
	crit := e.Cfg.MAC
	var m2p, band, p2p []*tree.Node
	var collect func(n *tree.Node)
	collect = func(n *tree.Node) {
		switch {
		case crit.AcceptSphere(leaf.Centroid, leaf.BRadius, n):
			m2p = append(m2p, n)
		case !crit.RejectSphere(leaf.Centroid, leaf.BRadius, n):
			band = append(band, n)
		case n.IsLeaf():
			p2p = append(p2p, n)
		default:
			for _, c := range n.Children {
				collect(c)
			}
		}
	}
	collect(e.Tree.Root)
	for i := leaf.Start; i < leaf.End; i++ {
		x := e.Tree.Pos[i]
		for _, n := range m2p {
			cluster(i, n, n.Degree)
		}
		for _, n := range band {
			e.visitFrom(n, x, i,
				func(nn *tree.Node, d int) { cluster(i, nn, d) },
				func(j int) { particle(i, j) })
		}
		for _, src := range p2p {
			for j := src.Start; j < src.End; j++ {
				if j != i {
					particle(i, j)
				}
			}
		}
	}
}

// TestBatchedInteractionSetMatchesWalk is the MAC-equivalence property
// test: for every particle, the interaction set produced by the batched
// (dual-tree) traversal must be *identical* to the per-particle walk's —
// same accepted clusters at the same degrees, same direct pairs, no
// duplicates. This is the structural guarantee behind the shared Theorem 2
// budget: batched mode never accepts an interaction the per-particle
// criterion would reject, and never opens a node the walk would accept.
func TestBatchedInteractionSetMatchesWalk(t *testing.T) {
	macs := []mac.MAC{
		mac.Alpha{Alpha: 0.6},
		mac.BoxAlpha{Alpha: 0.8},
		mac.MinDist{Alpha: 0.7},
	}
	for _, dist := range batchedDists {
		for _, m := range macs {
			t.Run(fmt.Sprintf("%s/%s", dist, m), func(t *testing.T) {
				set, err := points.Generate(dist, 900, 7)
				if err != nil {
					t.Fatal(err)
				}
				e := mustEval(t, set, Config{Method: Adaptive, Degree: 3, Alpha: 0.5, MAC: m, Eval: EvalBatched})
				for _, leaf := range e.Tree.Leaves() {
					got := map[int]map[interaction]int{}
					for i := leaf.Start; i < leaf.End; i++ {
						got[i] = map[interaction]int{}
					}
					visitBatchedInteractions(e, leaf,
						func(i int, n *tree.Node, d int) { got[i][interaction{n, d, -1}]++ },
						func(i, j int) { got[i][interaction{nil, 0, j}]++ })
					for i := leaf.Start; i < leaf.End; i++ {
						want := walkSet(e, e.Tree.Pos[i], i)
						if len(got[i]) != len(want) {
							t.Fatalf("particle %d: batched set has %d interactions, walk %d", i, len(got[i]), len(want))
						}
						for k, c := range got[i] {
							if c != 1 {
								t.Fatalf("particle %d: interaction %+v appears %d times", i, k, c)
							}
							if want[k] != 1 {
								t.Fatalf("particle %d: batched-only interaction %+v", i, k)
							}
						}
					}
				}
			})
		}
	}
}

// TestBatchedMatchesWalkAndBound checks, per distribution, that batched
// potentials agree with the walk's up to summation order and that the
// batched total error against direct summation stays within the
// Theorem 2 accumulated bound — the acceptance criterion of the dual-tree
// mode.
func TestBatchedMatchesWalkAndBound(t *testing.T) {
	for _, dist := range batchedDists {
		for _, method := range []Method{Original, Adaptive} {
			t.Run(fmt.Sprintf("%s/%s", dist, method), func(t *testing.T) {
				set, err := points.Generate(dist, 2000, 3)
				if err != nil {
					t.Fatal(err)
				}
				want := direct.SelfPotentials(set, 0)
				cfg := Config{Method: method, Degree: 4, Alpha: 0.5}
				ew := mustEval(t, set, cfg)
				pw, sw := ew.Potentials()
				cfg.Eval = EvalBatched
				eb := mustEval(t, set, cfg)
				pb, sb := eb.Potentials()

				// Identical interaction sets: identical integer cost stats.
				if sb.Terms != sw.Terms || sb.PC != sw.PC || sb.PP != sw.PP || sb.MaxDegree != sw.MaxDegree {
					t.Fatalf("stats diverge: batched {Terms %d PC %d PP %d MaxDeg %d}, walk {Terms %d PC %d PP %d MaxDeg %d}",
						sb.Terms, sb.PC, sb.PP, sb.MaxDegree, sw.Terms, sw.PC, sw.PP, sw.MaxDegree)
				}
				if math.Abs(sb.BoundSum-sw.BoundSum) > 1e-9*math.Abs(sw.BoundSum) {
					t.Fatalf("bound sums diverge: batched %v walk %v", sb.BoundSum, sw.BoundSum)
				}
				// Same sets, different summation order: tiny relative drift.
				if re := relErr(pb, pw); re > 1e-11 {
					t.Fatalf("batched drifts from walk: rel err %v", re)
				}
				// Theorem 2: total absolute error within the accumulated bound.
				var totalErr float64
				for i := range pb {
					totalErr += math.Abs(pb[i] - want[i])
				}
				if totalErr > sb.BoundSum*(1+1e-9) {
					t.Fatalf("total error %v exceeds Theorem 2 bound sum %v", totalErr, sb.BoundSum)
				}
			})
		}
	}
}

// TestBatchedFieldsMatchWalk checks the potential+field pathway.
func TestBatchedFieldsMatchWalk(t *testing.T) {
	set, err := points.Generate(points.Gaussian, 1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Method: Adaptive, Degree: 5, Alpha: 0.5}
	phiW, fW, _ := mustEval(t, set, cfg).Fields()
	cfg.Eval = EvalBatched
	phiB, fB, _ := mustEval(t, set, cfg).Fields()
	if re := relErr(phiB, phiW); re > 1e-11 {
		t.Fatalf("batched field potentials drift from walk: rel err %v", re)
	}
	for i := range fB {
		if d := fB[i].Sub(fW[i]).Norm(); d > 1e-9*(1+fW[i].Norm()) {
			t.Fatalf("field %d drifts: batched %v walk %v", i, fB[i], fW[i])
		}
	}
}

// TestBatchedScheduleInvariance asserts batched results are bitwise
// identical across worker counts: each particle's contributions are summed
// in the deterministic per-leaf list order regardless of which worker runs
// the leaf or how tasks are stolen.
func TestBatchedScheduleInvariance(t *testing.T) {
	set, err := points.Generate(points.MultiGauss, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Method: Adaptive, Degree: 4, Eval: EvalBatched}
	e := mustEval(t, set, cfg)
	ref, _ := e.PotentialsWithWorkers(1)
	for _, workers := range []int{2, 3, 2 * runtime.GOMAXPROCS(0)} {
		got, _ := e.PotentialsWithWorkers(workers)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: phi[%d] = %g differs bitwise from serial %g", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestBatchedCensusParity runs walk and batched with observability enabled
// and demands the interaction census agree: per-level accepts/rejects,
// term and pair counts, the degree histogram, and the opening-ratio
// extremes must be identical (the sets are identical); only float
// accumulation order may differ.
func TestBatchedCensusParity(t *testing.T) {
	set, err := points.Generate(points.Gaussian, 1200, 13)
	if err != nil {
		t.Fatal(err)
	}
	census := func(mode EvalMode) obs.Metrics {
		col := obs.New()
		cfg := Config{Method: Adaptive, Degree: 3, Eval: mode, Obs: col, Workers: 3}
		e := mustEval(t, set, cfg)
		e.Potentials()
		return col.Metrics()
	}
	mw := census(EvalWalk)
	mb := census(EvalBatched)
	if len(mb.Levels) != len(mw.Levels) {
		t.Fatalf("level count differs: batched %d walk %d", len(mb.Levels), len(mw.Levels))
	}
	for l := range mw.Levels {
		w, b := mw.Levels[l], mb.Levels[l]
		if b.Accepts != w.Accepts || b.Rejects != w.Rejects || b.M2PTerms != w.M2PTerms || b.PPPairs != w.PPPairs {
			t.Fatalf("level %d census differs: batched %+v walk %+v", l, b, w)
		}
		if math.Abs(b.Budget-w.Budget) > 1e-9*(1+math.Abs(w.Budget)) {
			t.Fatalf("level %d budget differs: batched %v walk %v", l, b.Budget, w.Budget)
		}
	}
	if len(mb.DegreeHist) != len(mw.DegreeHist) {
		t.Fatalf("degree hist length differs: %d vs %d", len(mb.DegreeHist), len(mw.DegreeHist))
	}
	for p := range mw.DegreeHist {
		if mb.DegreeHist[p] != mw.DegreeHist[p] {
			t.Fatalf("degree %d count differs: batched %d walk %d", p, mb.DegreeHist[p], mw.DegreeHist[p])
		}
	}
	if mb.OpenRatio.N != mw.OpenRatio.N || mb.OpenRatio.Min != mw.OpenRatio.Min || mb.OpenRatio.Max != mw.OpenRatio.Max {
		t.Fatalf("open-ratio stats differ: batched %+v walk %+v", mb.OpenRatio, mw.OpenRatio)
	}
	// The batch counters exist only on the batched run and must be
	// internally consistent with the census.
	if mw.Batch != (obs.BatchMetrics{}) {
		t.Fatalf("walk run recorded batch metrics: %+v", mw.Batch)
	}
	b := mb.Batch
	if b.LeafTasks != int64(len(mustEval(t, set, Config{Degree: 3}).Tree.Leaves())) {
		t.Fatalf("leaf task count %d does not match tree leaves", b.LeafTasks)
	}
	// Accepts served from shared lists plus band-root accepts can only
	// undercount the census: descending below a rejected band root may
	// accept deeper clusters, which count as plain accepts.
	if b.SharedServed+b.RefineAccepts > mb.Accepts() {
		t.Fatalf("shared-served %d + refine-accepts %d exceed total accepts %d",
			b.SharedServed, b.RefineAccepts, mb.Accepts())
	}
	if b.RefineAccepts > b.RefineChecks {
		t.Fatalf("refine accepts %d exceed checks %d", b.RefineAccepts, b.RefineChecks)
	}
	if b.SharedEntries == 0 || b.SharedServed == 0 {
		t.Fatalf("no shared far-field amortization recorded: %+v", b)
	}
}

// TestBatchedValidation: ParseEvalMode must round-trip the two modes.
func TestBatchedValidation(t *testing.T) {
	for _, s := range []string{"walk", "batched", ""} {
		if _, err := ParseEvalMode(s); err != nil {
			t.Fatalf("ParseEvalMode(%q): %v", s, err)
		}
	}
	if m, _ := ParseEvalMode("batched"); m != EvalBatched || m.String() != "batched" {
		t.Fatalf("ParseEvalMode(batched) = %v", m)
	}
	if _, err := ParseEvalMode("nope"); err == nil {
		t.Fatal("ParseEvalMode accepted garbage")
	}
}

// TestBatchedSetCharges checks the iterative-solver pathway (recharge, then
// re-evaluate) under batched mode.
func TestBatchedSetCharges(t *testing.T) {
	set, err := points.Generate(points.Uniform, 800, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Method: Adaptive, Degree: 4, Eval: EvalBatched}
	e := mustEval(t, set, cfg)
	q := make([]float64, set.N())
	for i := range q {
		q[i] = float64(i%5) - 2.2
	}
	if err := e.SetCharges(q); err != nil {
		t.Fatal(err)
	}
	got, _ := e.Potentials()
	for i, p := range set.Particles {
		p.Charge = q[i]
		set.Particles[i] = p
	}
	want := direct.SelfPotentials(set, 0)
	if re := relErr(got, want); re > 0.01 {
		t.Fatalf("recharged batched potentials rel err %v", re)
	}
}
