// Package core implements the paper's treecodes: the original fixed-degree
// Barnes-Hut method and the improved adaptive-degree method that selects a
// multipole degree per cluster from its net charge (Theorem 3), equalizing
// the per-interaction error bound and reducing the aggregate error from
// O(total charge) to O(log n) at marginal extra cost.
//
// The evaluator owns an octree whose nodes carry multipole expansions built
// in a bottom-up pass. A node's degree can exceed its children's, and an
// M2M into a degree-P parent needs its children at degree P or more, so an
// expansion may be carried above its own degree ("computed a-priori to the
// maximum required degree", as the paper prescribes); in triangular storage
// a lower-degree expansion is a prefix of a higher-degree one, so
// evaluation simply reads the prefix it needs. Which nodes carry what is a
// per-node choice: the engine builds each internal node by P2M over its
// particles or by M2M from its children, whichever an operation count says
// is cheaper, and only M2M-built parents raise their children's degree
// (Engine.planUpward).
//
// Evaluation walks the tree per target with a multipole acceptance
// criterion: accepted clusters contribute through M2P, rejected leaves
// through direct summation. The paper's serial cost metric — the number of
// multipole terms evaluated, (p+1)^2 per interaction — is tracked in Stats.
package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"treecode/internal/bounds"
	"treecode/internal/mac"
	"treecode/internal/multipole"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// Method selects between the paper's two algorithms.
type Method int

const (
	// Original is the classical fixed-degree Barnes-Hut method: every
	// cluster uses the same multipole degree.
	Original Method = iota
	// Adaptive is the paper's improved method: the degree of each cluster
	// grows with its net absolute charge per Theorem 3, so that every
	// accepted interaction carries the same error bound.
	Adaptive
)

func (m Method) String() string {
	if m == Adaptive {
		return "adaptive"
	}
	return "original"
}

// EvalMode selects the evaluation traversal strategy.
type EvalMode int

const (
	// EvalWalk is the reference strategy: one full recursive MAC walk from
	// the root per target particle.
	EvalWalk EvalMode = iota
	// EvalBatched is the leaf-batched dual-tree strategy: the octree is
	// traversed once per target leaf, testing the MAC conservatively
	// against the leaf's bounding sphere. Clusters the whole leaf provably
	// accepts form a shared far-field (M2P) list and leaves the whole leaf
	// provably rejects form a shared near-field (P2P) list, both consumed
	// by every particle of the leaf; only the clusters in the refinement
	// band between the two sphere tests fall back to per-particle MAC
	// decisions. Leaf tasks are balanced across workers by a work-stealing
	// scheduler. The interaction set of every particle is identical to
	// EvalWalk's (the sphere tests are conservative, never accepting what
	// the per-particle criterion would reject), so both modes satisfy the
	// same Theorem 2 error budget; only the summation order differs.
	EvalBatched
)

func (m EvalMode) String() string {
	if m == EvalBatched {
		return "batched"
	}
	return "walk"
}

// ParseEvalMode parses the command-line spelling of an evaluation mode.
func ParseEvalMode(s string) (EvalMode, error) {
	switch s {
	case "", "walk":
		return EvalWalk, nil
	case "batched":
		return EvalBatched, nil
	}
	return EvalWalk, fmt.Errorf("core: unknown eval mode %q (want walk or batched)", s)
}

// Config controls evaluator construction.
type Config struct {
	// Method selects fixed-degree (Original) or per-cluster degrees
	// (Adaptive). Default Original.
	Method Method
	// Alpha is the acceptance parameter of the paper's alpha-criterion,
	// 0 < Alpha < 1. Default 0.5.
	Alpha float64
	// MAC overrides the acceptance criterion. Default mac.Alpha{Alpha}.
	// The degree selection always uses Alpha.
	MAC mac.MAC
	// Degree is the multipole degree of the Original method and the
	// minimum (reference) degree of the Adaptive method. Default 4.
	Degree int
	// MaxDegree clamps adaptive degrees (relevant for unstructured
	// domains). Default Degree+20.
	MaxDegree int
	// LeafCap is the octree leaf capacity. Default 8.
	LeafCap int
	// Workers is the number of evaluation goroutines; 0 means GOMAXPROCS.
	Workers int
	// ChunkSize is the number of consecutive (tree-ordered, hence
	// proximity-preserving) targets aggregated per work unit, the paper's
	// w. Default 64.
	ChunkSize int
	// Eval selects the traversal strategy for Potentials and Fields:
	// EvalWalk (default) runs the per-particle recursive MAC walk,
	// EvalBatched the leaf-batched dual-tree traversal with work-stealing
	// scheduling. PotentialsAt always walks: arbitrary targets carry no
	// leaf grouping.
	Eval EvalMode
	// Soften is the Plummer softening length ε of the near field: every
	// directly summed pair interacts through 1/sqrt(r²+ε²) instead of 1/r,
	// while accepted clusters keep the unsoftened multipole expansion. 0,
	// the default, is the paper's pure 1/r kernel bit for bit.
	Soften float64
	// RefQuantile selects the Theorem 3 reference cluster among the
	// deepest-level leaves by charge quantile. 0 (default) is the theorem's
	// choice — the smallest-charge leaf, the most accurate and most
	// expensive; larger values (e.g. 0.5 for the median leaf) keep more
	// clusters at the minimum degree, trading error for terms. Only used
	// by the Adaptive method.
	RefQuantile float64
	// Obs attaches an observability collector: phase spans around tree
	// build, degree selection, expansion build and evaluation, plus
	// per-interaction metrics (MAC accept/reject per level, degree
	// histogram, opening ratios, Theorem 2 budget) gathered in per-worker
	// shards. Nil (the default) disables all recording; the hot path then
	// pays a single nil check per interaction.
	Obs *obs.Collector
}

func (c *Config) fill() {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Degree == 0 {
		c.Degree = 4
	}
	if c.MaxDegree == 0 {
		c.MaxDegree = c.Degree + 20
	}
	if c.LeafCap == 0 {
		c.LeafCap = 8
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 64
	}
	if c.MAC == nil {
		c.MAC = mac.Alpha{Alpha: c.Alpha}
	}
}

// Validate checks the configuration after defaults are applied: the
// alpha-criterion needs 0 < Alpha < 1, degrees must be non-negative with
// MaxDegree >= Degree, sizes must be positive, Workers non-negative,
// RefQuantile in [0, 1], and Soften finite and non-negative. The float
// ranges are tested as !(in range), so NaN fails them. New validates
// automatically; command-line drivers call this early to reject bad flag
// values before any work is done.
func (c Config) Validate() error {
	c.fill()
	switch {
	case !(c.Alpha > 0 && c.Alpha < 1):
		return fmt.Errorf("core: alpha must be in (0,1), got %v", c.Alpha)
	case c.Degree < 0:
		return fmt.Errorf("core: negative degree %d", c.Degree)
	case c.MaxDegree < c.Degree:
		return fmt.Errorf("core: max degree %d below degree %d", c.MaxDegree, c.Degree)
	case c.LeafCap <= 0:
		return fmt.Errorf("core: leaf capacity must be positive, got %d", c.LeafCap)
	case c.ChunkSize <= 0:
		return fmt.Errorf("core: chunk size must be positive, got %d", c.ChunkSize)
	case c.Workers < 0:
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	case !(c.RefQuantile >= 0 && c.RefQuantile <= 1):
		return fmt.Errorf("core: reference quantile must be in [0,1], got %v", c.RefQuantile)
	case c.Eval != EvalWalk && c.Eval != EvalBatched:
		return fmt.Errorf("core: unknown eval mode %d", c.Eval)
	case !(c.Soften >= 0) || math.IsInf(c.Soften, 1):
		return fmt.Errorf("core: softening must be finite and non-negative, got %v", c.Soften)
	}
	return nil
}

// Stats aggregates the cost and accuracy instrumentation of one evaluation.
type Stats struct {
	Terms       int64   // multipole series terms evaluated: sum (p+1)^2, the paper's metric
	PC          int64   // particle-cluster (M2P) interactions
	PP          int64   // particle-particle (direct) interactions
	BoundSum    float64 // sum over targets of per-target error-bound totals
	MaxDegree   int     // largest degree used in an accepted interaction
	BuildTime   time.Duration
	EvalTime    time.Duration
	TreeHeight  int
	TreeNodes   int
	TreeLeaves  int
	UpwardTerms int64 // terms computed in the P2M/M2M upward pass
}

// add merges o into s (not concurrency-safe; workers merge at the end).
func (s *Stats) add(o *Stats) {
	s.Terms += o.Terms
	s.PC += o.PC
	s.PP += o.PP
	s.BoundSum += o.BoundSum
	if o.MaxDegree > s.MaxDegree {
		s.MaxDegree = o.MaxDegree
	}
}

// RebuildKind reports which maintenance path Evaluator.Update took.
type RebuildKind int

const (
	// RebuildRefit means the existing octree was maintained in place:
	// migrants re-bucketed locally, node statistics refreshed bottom-up
	// with conservative radii, and expansion storage reused.
	RebuildRefit RebuildKind = iota
	// RebuildFull means the drift policy fell back to a full parallel
	// reconstruction (out-of-root particles, migrant fraction, re-sort
	// volume, or radius inflation past their thresholds).
	RebuildFull
)

func (k RebuildKind) String() string {
	if k == RebuildFull {
		return "full"
	}
	return "refit"
}

// Evaluator computes potentials/fields for a particle set with a treecode.
// The source side — tree, degrees, expansions and their Update/SetCharges
// lifecycle — is the embedded Engine; the Evaluator adds the target side.
type Evaluator struct {
	Cfg Config
	Engine

	leaves []*tree.Node // tree-ordered leaves: batched mode's task list
	plans  []leafPlan   // cached interaction plans, index-aligned with leaves (plan.go)

	// Reused by realignPlans: the old plans' index by leaf, and the array
	// the next realignment writes the plan store into.
	planIndex  map[*tree.Node]int
	sparePlans []leafPlan
	// scratchPool keeps the batch workers' planScratch across evaluations,
	// which may run concurrently once the plan store is warm.
	scratchPool sync.Pool
}

// New builds the octree, selects per-node degrees, and runs the upward
// multipole pass.
func New(set *points.Set, cfg Config) (*Evaluator, error) {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{Cfg: cfg}
	e.owner = e
	if err := e.Init(set, e.engineConfig); err != nil {
		return nil, err
	}
	return e, nil
}

// engineConfig is the source-side view of Cfg, read by the engine on every
// call.
func (e *Evaluator) engineConfig() EngineConfig {
	c := &e.Cfg
	return EngineConfig{Name: "core", Method: c.Method, Alpha: c.Alpha,
		Degree: c.Degree, MaxDegree: c.MaxDegree, LeafCap: c.LeafCap,
		Workers: c.Workers, RefQuantile: c.RefQuantile, Obs: c.Obs}
}

// built resets the leaf list after a construction. rebuild is the
// drift-policy reason when a refit fell back to it, empty for New. The
// fresh tree shares no nodes with any cached plan, so a full rebuild drops
// the whole store and every leaf re-traverses from scratch.
func (e *Evaluator) built(rebuild string) {
	if e.plans != nil {
		e.Cfg.Obs.AddPlanDrop("full rebuild: "+rebuild, int64(len(e.plans)))
	}
	e.leaves = e.Tree.AppendLeaves(e.leaves[:0])
	e.plans = nil
}

// refitted revalidates the cached interaction plans against a refit's
// drift before evaluation resumes: when the decomposition changed, the
// leaf list is refreshed and the store realigned to it; then each node's
// recorded geometry drift is consumed against the slack every plan entry
// was cached with.
func (e *Evaluator) refitted(migrants int) {
	if migrants > 0 {
		e.leaves = e.Tree.AppendLeaves(e.leaves[:0])
	}
	e.revalidatePlans(migrants)
}

// Potentials returns the potential at every particle (self-interaction
// excluded), in the original particle order, along with evaluation stats.
func (e *Evaluator) Potentials() ([]float64, *Stats) {
	return e.PotentialsWithWorkers(e.Cfg.Workers)
}

// PotentialsWithWorkers is Potentials with an explicit worker count for
// this call only (0 means GOMAXPROCS). In walk mode it does not mutate the
// evaluator, so concurrent calls with different worker counts are safe. In
// batched mode a call may build or repair the persistent interaction plans,
// so a call that follows construction or Update must not overlap another
// evaluation (or Update); once the plan store is warm and intact — at least
// one evaluation since the last Update — further evaluations only read the
// plans and may run concurrently. The results are bitwise independent of
// the worker count either way.
func (e *Evaluator) PotentialsWithWorkers(workers int) ([]float64, *Stats) {
	t := e.Tree
	n := len(t.Pos)
	out := make([]float64, n)
	stats := e.newStats()
	sp := e.Cfg.Obs.Start("core/potentials")
	start := time.Now()
	if e.Cfg.Eval == EvalBatched {
		e.batchedOver(nil, nil, workers, sp, stats, func(w *batchWorker, li int) {
			w.leafPotentials(li, out)
		})
	} else {
		e.walkChunks(n, workers, sp, stats, func(w *batchWorker, i int) {
			out[t.Perm[i]] = w.potential(t.Pos[i], i)
		})
	}
	stats.EvalTime = time.Since(start)
	sp.End()
	return out, stats
}

// PotentialsAt evaluates the potential at arbitrary target points (no
// self-exclusion).
func (e *Evaluator) PotentialsAt(targets []vec.V3) ([]float64, *Stats) {
	out := make([]float64, len(targets))
	stats := e.newStats()
	sp := e.Cfg.Obs.Start("core/potentials-at")
	start := time.Now()
	e.walkChunks(len(targets), e.Cfg.Workers, sp, stats, func(w *batchWorker, i int) {
		out[i] = w.potential(targets[i], -1)
	})
	stats.EvalTime = time.Since(start)
	sp.End()
	return out, stats
}

// Fields returns the potential and field E = -grad(phi) at every particle
// (self-excluded), in original order.
func (e *Evaluator) Fields() ([]float64, []vec.V3, *Stats) {
	return e.fields(nil)
}

// FieldsFor is Fields restricted to a target subset: active marks, by
// original particle index, the targets to evaluate; every particle remains
// a source. The returned slices are full-length, with zero entries left
// for inactive particles. Active entries are bitwise identical to the
// corresponding Fields entries at the same positions — the walk path runs
// the identical per-particle traversal, and the batched path runs the
// identical kind-filtered passes over each leaf's plan, skipping inactive
// particles (whose per-particle sums are independent of the active ones).
// Target leaves without an active particle are not processed at all, so
// their cached interaction plans are neither built nor repaired: they
// survive active-only refits untouched for the step that next needs them.
// A non-nil mask has one entry per particle, as for UpdateFor; a mask of
// any other length is rejected with an error before any plan is built or
// repaired. A nil mask is Fields.
func (e *Evaluator) FieldsFor(active []bool) ([]float64, []vec.V3, *Stats, error) {
	if active != nil && len(active) != len(e.Tree.Pos) {
		return nil, nil, nil, fmt.Errorf("core: active mask of %d entries for %d particles", len(active), len(e.Tree.Pos))
	}
	phi, field, stats := e.fields(active)
	return phi, field, stats, nil
}

// fields is the body of Fields and FieldsFor; active is a checked mask or
// nil.
func (e *Evaluator) fields(active []bool) ([]float64, []vec.V3, *Stats) {
	t := e.Tree
	n := len(t.Pos)
	phi := make([]float64, n)
	field := make([]vec.V3, n)
	stats := e.newStats()
	sp := e.Cfg.Obs.Start("core/fields")
	start := time.Now()
	if e.Cfg.Eval == EvalBatched {
		var tasks []int
		if active != nil {
			tasks = make([]int, 0, len(e.leaves))
			for li, leaf := range e.leaves {
				for i := leaf.Start; i < leaf.End; i++ {
					if active[t.Perm[i]] {
						tasks = append(tasks, li)
						break
					}
				}
			}
		}
		e.batchedOver(tasks, active, e.Cfg.Workers, sp, stats, func(w *batchWorker, li int) {
			w.leafFields(li, phi, field)
		})
	} else {
		e.walkChunks(n, e.Cfg.Workers, sp, stats, func(w *batchWorker, i int) {
			if active != nil && !active[t.Perm[i]] {
				return
			}
			p, f := w.field(t.Pos[i], i)
			phi[t.Perm[i]] = p
			field[t.Perm[i]] = f
		})
	}
	stats.EvalTime = time.Since(start)
	sp.End()
	return phi, field, stats
}

func (e *Evaluator) newStats() *Stats {
	s := &Stats{
		TreeHeight:  e.Tree.Height,
		TreeNodes:   e.Tree.NNodes,
		TreeLeaves:  e.Tree.NLeaves,
		BuildTime:   e.buildT,
		UpwardTerms: e.UpwardTerms(),
	}
	return s
}

// worker holds per-goroutine scratch state. shard is the worker's private
// observability accumulator (nil when obs is disabled); the single
// `w.shard != nil` branch is the hot path's whole obs cost in that case.
type worker struct {
	e     *Evaluator
	stats Stats
	shard *obs.Shard
}

// walkChunks runs the per-particle walk body over targets [0,n) in
// ChunkSize blocks of consecutive (tree-ordered, hence proximity-
// preserving) targets — the paper's w — one fanOut task per block.
func (e *Evaluator) walkChunks(n, workers int, parent *obs.Span, stats *Stats, body func(w *batchWorker, i int)) {
	chunk := e.Cfg.ChunkSize
	e.fanOut((n+chunk-1)/chunk, workers, nil, parent, stats, func(w *batchWorker, c int) {
		hi := min(n, (c+1)*chunk)
		for i := c * chunk; i < hi; i++ {
			body(w, i)
		}
	})
}

// potential evaluates the treecode potential at x; self >= 0 excludes the
// particle at tree-order index self from direct sums.
func (w *worker) potential(x vec.V3, self int) float64 {
	return w.walk(w.e.Tree.Root, x, self)
}

// walk accumulates the treecode potential over the subtree at n.
//
//treecode:hot
func (w *worker) walk(n *tree.Node, x vec.V3, self int) float64 {
	if w.e.Cfg.MAC.Accept(x, n) {
		return w.acceptM2P(n, x)
	}
	if w.shard != nil {
		w.shard.Reject(n.Level)
	}
	return w.walkBelow(n, x, self)
}

// acceptM2P evaluates one accepted cluster interaction (M2P) with full
// stats accounting, and is the one accept step of every potential
// evaluation: the walk (Potentials in walk mode and PotentialsAt), the
// batched shared M2P list and the batched refinement band. It runs the
// single-pass EvaluateFused kernel and the exponentiation-by-squaring
// bound.
//
//treecode:hot
func (w *worker) acceptM2P(n *tree.Node, x vec.V3) float64 {
	p := n.Degree
	w.stats.Terms += multipole.Terms(p)
	w.stats.PC++
	if p > w.stats.MaxDegree {
		w.stats.MaxDegree = p
	}
	r := x.Dist(n.Mp.Center)
	w.stats.BoundSum += multipole.TruncationBoundFast(n.Mp.AbsCharge, n.Mp.Radius, r, p)
	if w.shard != nil {
		w.recordAccept(n, r, p)
	}
	return n.Mp.EvaluateFused(x, p)
}

// walkBelow accumulates the potential over the subtree at n for a target
// already known to reject n: a leaf is summed directly, an internal node
// descends into its children. The batched traversal's refinement band
// lands here too, after its own exact per-particle rejection.
//
//treecode:hot
func (w *worker) walkBelow(n *tree.Node, x vec.V3, self int) float64 {
	if n.IsLeaf() {
		phi, pp := w.direct(n, x, self)
		w.stats.PP += pp
		if w.shard != nil {
			w.shard.Direct(n.Level, pp)
		}
		return phi
	}
	var phi float64
	for _, c := range n.Children {
		phi += w.walk(c, x, self)
	}
	return phi
}

// direct sums the particles of leaf n at x (P2P over the leaf's contiguous
// tree-order slice), skipping the self particle and any source at r = 0.
// It and directField sum every near-field pair of every evaluation, so
// they alone carry Config.Soften: r = sqrt(|x−x_j|² + ε²), with ε² read
// once per call. At ε = 0 the added term is +0 and r is x.Dist(x_j) bit
// for bit; at ε > 0 a coincident source contributes q_j/ε.
//
//treecode:hot
func (w *worker) direct(n *tree.Node, x vec.V3, self int) (float64, int64) {
	t := w.e.Tree
	eps2 := w.e.Cfg.Soften * w.e.Cfg.Soften
	var phi float64
	var pp int64
	for j := n.Start; j < n.End; j++ {
		if j == self {
			continue
		}
		r := math.Sqrt(x.Dist2(t.Pos[j]) + eps2)
		if r == 0 {
			continue // coincident target and source: skip, as direct does
		}
		phi += t.Q[j] / r
		pp++
	}
	return phi, pp
}

// recordAccept feeds one accepted interaction at distance r from the
// cluster's center to the worker's obs shard: level, degree, series terms,
// the opening ratio a/r actually realized, and the Theorem 2 predicted
// bound A alpha^{p+1}/(r(1-alpha)). The caller passes the distance its own
// Theorem 1 bound used, so a traced interaction computes it once.
func (w *worker) recordAccept(n *tree.Node, r float64, p int) {
	ratio := 0.0
	if r > 0 {
		ratio = n.Radius / r
	}
	w.shard.Accept(n.Level, p, multipole.Terms(p), ratio,
		bounds.AlphaBound(n.AbsCharge, r, w.e.Cfg.Alpha, p))
}

// field evaluates potential and field E = -grad(phi) at x.
func (w *worker) field(x vec.V3, self int) (float64, vec.V3) {
	return w.walkField(w.e.Tree.Root, x, self)
}

// walkField accumulates potential and field over the subtree at n.
//
//treecode:hot
func (w *worker) walkField(n *tree.Node, x vec.V3, self int) (float64, vec.V3) {
	if w.e.Cfg.MAC.Accept(x, n) {
		return w.acceptM2PField(n, x)
	}
	if w.shard != nil {
		w.shard.Reject(n.Level)
	}
	return w.walkFieldBelow(n, x, self)
}

// acceptM2PField is acceptM2P's potential+field counterpart and the one
// accept step of every field evaluation: the walk, the batched shared M2P
// list and the batched refinement band. It runs the single-pass
// EvaluateFieldFused kernel and the exponentiation-by-squaring bound.
//
//treecode:hot
func (w *worker) acceptM2PField(n *tree.Node, x vec.V3) (float64, vec.V3) {
	p := n.Degree
	w.stats.Terms += multipole.Terms(p)
	w.stats.PC++
	if p > w.stats.MaxDegree {
		w.stats.MaxDegree = p
	}
	r := x.Dist(n.Mp.Center)
	w.stats.BoundSum += multipole.TruncationBoundFast(n.Mp.AbsCharge, n.Mp.Radius, r, p)
	if w.shard != nil {
		w.recordAccept(n, r, p)
	}
	phi, grad := n.Mp.EvaluateFieldFused(x, p)
	return phi, grad.Neg()
}

// walkFieldBelow is walkBelow's potential+field counterpart.
//
//treecode:hot
func (w *worker) walkFieldBelow(n *tree.Node, x vec.V3, self int) (float64, vec.V3) {
	if n.IsLeaf() {
		phi, f, pp := w.directField(n, x, self)
		w.stats.PP += pp
		if w.shard != nil {
			w.shard.Direct(n.Level, pp)
		}
		return phi, f
	}
	var phi float64
	var f vec.V3
	for _, c := range n.Children {
		p, g := w.walkField(c, x, self)
		phi += p
		f = f.Add(g)
	}
	return phi, f
}

// directField is direct's potential+field counterpart.
//
//treecode:hot
func (w *worker) directField(n *tree.Node, x vec.V3, self int) (float64, vec.V3, int64) {
	t := w.e.Tree
	eps2 := w.e.Cfg.Soften * w.e.Cfg.Soften
	var phi float64
	var f vec.V3
	var pp int64
	for j := n.Start; j < n.End; j++ {
		if j == self {
			continue
		}
		d := x.Sub(t.Pos[j])
		r2 := d.Norm2() + eps2
		if r2 == 0 {
			continue
		}
		invR := 1 / math.Sqrt(r2)
		phi += t.Q[j] * invR
		f = f.Add(d.Scale(t.Q[j] * invR / r2))
		pp++
	}
	return phi, f, pp
}

// VisitInteractions walks the interaction set of a target exactly as the
// evaluator would, reporting each accepted cluster (with the degree it would
// be evaluated at) and each directly-summed particle (tree-order index).
// Used by the analysis tests, the parallel cost simulator, and the
// communication model.
func (e *Evaluator) VisitInteractions(x vec.V3, self int,
	cluster func(n *tree.Node, degree int), particle func(j int)) {
	e.visitFrom(e.Tree.Root, x, self, cluster, particle)
}

// visitFrom is VisitInteractions rooted at an arbitrary subtree; the
// batched interaction-set test reuses it for refinement-band clusters.
func (e *Evaluator) visitFrom(root *tree.Node, x vec.V3, self int,
	cluster func(n *tree.Node, degree int), particle func(j int)) {
	var visit func(n *tree.Node)
	visit = func(n *tree.Node) {
		if e.Cfg.MAC.Accept(x, n) {
			if cluster != nil {
				cluster(n, n.Degree)
			}
			return
		}
		if n.IsLeaf() {
			if particle != nil {
				for j := n.Start; j < n.End; j++ {
					if j != self {
						particle(j)
					}
				}
			}
			return
		}
		for _, c := range n.Children {
			visit(c)
		}
	}
	visit(root)
}
