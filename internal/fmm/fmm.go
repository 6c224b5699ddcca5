// Package fmm implements a Fast Multipole Method on the same octree and
// multipole machinery as the treecode. The paper's closing section notes
// that its adaptive-degree results "can easily be extended to the Fast
// Multipole Method"; this package is that extension.
//
// The algorithm is the dual-tree-traversal formulation, which works
// unchanged on adaptive (non-uniform) trees:
//
//	upward:   P2M at leaves, M2M to ancestors (expansions carried at the
//	          maximum degree an ancestor needs, as in the treecode).
//	traverse: recursively pair source and target nodes. Well-separated
//	          pairs (rA + rB <= alpha * d) convert the source multipole to
//	          a local expansion of the target (M2L); inseparable leaf
//	          pairs interact directly (P2P); otherwise the larger node is
//	          split.
//	downward: locals flow to children (L2L) and evaluate at particles
//	          (L2P), added to the P2P near field.
//
// Degrees follow the evaluator's method: a fixed p for Original, the
// Theorem 3 per-cluster degree for Adaptive. Local expansions use the
// target node's degree; M2L consumes the full source expansion.
package fmm

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"treecode/internal/core"
	"treecode/internal/multipole"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/sched"
	"treecode/internal/tree"
)

// Config controls the FMM evaluator.
type Config struct {
	// Method selects fixed (Original) or adaptive (Adaptive) degrees.
	Method core.Method
	// Alpha is the separation parameter: a source/target pair interacts
	// through expansions when rA + rB <= Alpha * distance. Default 0.5.
	Alpha float64
	// Degree is the fixed degree / adaptive minimum degree. Default 4.
	Degree int
	// MaxDegree clamps adaptive degrees. Default Degree+20.
	MaxDegree int
	// LeafCap is the octree leaf capacity. FMM amortizes better with
	// heavier leaves than the treecode. Default 32.
	LeafCap int
	// Workers is the number of goroutines for the M2L and P2P phases
	// (the traversal itself and the downward pass are cheap). 0 means
	// GOMAXPROCS. Results are identical for any worker count.
	Workers int
	// Obs attaches an observability collector recording phase spans for
	// the build (tree, degrees), upward, and evaluation (traverse, M2L,
	// P2P, downward) passes. Nil disables recording. The collector also
	// receives Theorem 3 degree-clamp counts for the adaptive method.
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
		c.LeafCap = 32
	}
}

// Validate mirrors core.Config.Validate for the FMM configuration: it
// checks ranges after defaults are applied. New validates automatically;
// drivers call it early to reject bad flag values.
func (c Config) Validate() error {
	c.fill()
	switch {
	case !(c.Alpha > 0 && c.Alpha < 1): // NaN fails too
		return fmt.Errorf("fmm: alpha must be in (0,1), got %v", c.Alpha)
	case c.Degree < 0:
		return fmt.Errorf("fmm: negative degree %d", c.Degree)
	case c.MaxDegree < c.Degree:
		return fmt.Errorf("fmm: max degree %d below degree %d", c.MaxDegree, c.Degree)
	case c.LeafCap <= 0:
		return fmt.Errorf("fmm: leaf capacity must be positive, got %d", c.LeafCap)
	case c.Workers < 0:
		return fmt.Errorf("fmm: negative worker count %d", c.Workers)
	}
	return nil
}

// Stats counts the work of one FMM evaluation.
type Stats struct {
	M2L        int64 // multipole-to-local conversions
	P2P        int64 // direct pairs
	M2LTerms   int64 // source terms consumed by M2L: (pSrc+1)^2 each
	UpTerms    int64 // P2M/M2M terms
	BuildTime  time.Duration
	EvalTime   time.Duration
	TreeHeight int
	TreeNodes  int
}

// Evaluator is a constructed FMM ready to evaluate potentials. Its source
// side — tree, degrees, expansions, and the Update/SetCharges lifecycle —
// is the treecode's core.Engine; the FMM adds only the target side, the
// dual-tree traversal and its local expansions. Between Update or
// SetCharges calls the evaluator is immutable, so concurrent Potentials
// calls are safe: all per-evaluation state lives in a sweep.
//
// Unlike the treecode's batched evaluator, the FMM re-derives its M2L/P2P
// pair lists by a fresh dual-tree traversal on every evaluation: the
// separation test rA + rB <= alpha*d has the same signed-margin structure
// the plan cache revalidates in core (internal/core/plan.go), so the same
// slack bookkeeping would carry the pair lists across refits, but the FMM
// traversal is a far smaller share of its evaluation time (M2L dominates),
// so the cache has not been mirrored here.
type Evaluator struct {
	Cfg Config
	core.Engine
}

// sweep is the mutable state of one evaluation — Potentials, Fields or
// PotentialsAt — (task lists from the dual-tree traversal, the accumulated
// local expansions and the per-worker scratch of the translation kernels),
// kept per call so concurrent evaluations on one Evaluator share neither
// maps nor scratch.
type sweep struct {
	e        *Evaluator
	locals   map[*tree.Node]*multipole.Local
	m2lTasks map[*tree.Node][]*tree.Node
	p2pTasks map[*tree.Node][]*tree.Node
	bufs     [][]complex128 // one per worker; see sweepScratch
}

// newSweep returns the empty state of one evaluation.
func (e *Evaluator) newSweep() *sweep {
	return &sweep{
		e:        e,
		locals:   make(map[*tree.Node]*multipole.Local, e.Tree.NNodes),
		m2lTasks: make(map[*tree.Node][]*tree.Node),
		p2pTasks: make(map[*tree.Node][]*tree.Node),
		bufs:     e.sweepScratch(),
	}
}

// sweepScratch returns one scratch buffer per worker, of
// multipole.M2LBufLen at the largest local and source degree of an
// evaluation: enough for any of its M2Ls, and so for each of its L2L and
// L2P steps too. Potentials, Fields and PotentialsAt all size their
// scratch here.
func (e *Evaluator) sweepScratch() [][]complex128 {
	p := max(e.Cfg.Degree, e.MaxSelectedDegree())
	bufs := make([][]complex128, e.workers())
	for i := range bufs {
		bufs[i] = make([]complex128, multipole.M2LBufLen(p, p))
	}
	return bufs
}

// New builds the tree, selects degrees and runs the upward pass.
func New(set *points.Set, cfg Config) (*Evaluator, error) {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{Cfg: cfg}
	if err := e.Init(set, e.engineConfig); err != nil {
		return nil, err
	}
	return e, nil
}

// engineConfig is the source-side view of Cfg, read by the engine on every
// call. The Theorem 3 reference is the smallest-charge deepest leaf
// (reference quantile 0), the theorem's own choice.
func (e *Evaluator) engineConfig() core.EngineConfig {
	c := &e.Cfg
	return core.EngineConfig{Name: "fmm", Method: c.Method, Alpha: c.Alpha,
		Degree: c.Degree, MaxDegree: c.MaxDegree, LeafCap: c.LeafCap,
		Workers: c.Workers, Obs: c.Obs}
}

// Potentials evaluates the potential at every particle (self-excluded), in
// the original particle order.
func (e *Evaluator) Potentials() ([]float64, *Stats) {
	t := e.Tree
	n := len(t.Pos)
	out := make([]float64, n) // tree order during the sweep
	st := &Stats{TreeHeight: t.Height, TreeNodes: t.NNodes, BuildTime: e.BuildTime(), UpTerms: e.UpwardTerms()}
	start := time.Now()

	// Phase 1 (serial, cheap): dual-tree traversal collecting the M2L and
	// P2P task lists. Phase 2/3 (parallel): execute them — each target
	// node's local expansion and each target leaf's direct sums are
	// independent, so results are bit-identical for any worker count.
	s := e.newSweep()
	esp := e.Cfg.Obs.Start("fmm/eval")
	sp := esp.Child("traverse")
	s.traverse(t.Root, t.Root, st)
	sp.End()
	sp = esp.Child("m2l")
	s.runM2L(t)
	sp.End()
	sp = esp.Child("p2p")
	s.runP2P(out)
	sp.End()
	sp = esp.Child("downward")
	s.downward(t.Root, nil, out)
	sp.End()
	esp.End()

	st.EvalTime = time.Since(start)
	// Permute back to original order.
	res := make([]float64, n)
	for i, orig := range t.Perm {
		res[orig] = out[i]
	}
	return res, st
}

// separated reports whether the pair can interact through expansions.
func (e *Evaluator) separated(a, b *tree.Node) bool {
	d := a.Center.Dist(b.Center)
	return d > 0 && a.Radius+b.Radius <= e.Cfg.Alpha*d
}

// traverse pairs target node a with source node b, collecting tasks. a
// may lie in a separate target tree (PotentialsAt), where the a == b cases
// never arise.
func (s *sweep) traverse(a, b *tree.Node, st *Stats) {
	if a != b && s.e.separated(a, b) {
		s.m2lTasks[a] = append(s.m2lTasks[a], b)
		st.M2L++
		st.M2LTerms += multipole.Terms(b.Degree)
		return
	}
	aLeaf, bLeaf := a.IsLeaf(), b.IsLeaf()
	switch {
	case aLeaf && bLeaf:
		s.p2pTasks[a] = append(s.p2pTasks[a], b)
		st.P2P += int64(a.Count()) * int64(b.Count())
		if a == b {
			st.P2P -= int64(a.Count())
		}
	case bLeaf || (!aLeaf && a.Radius >= b.Radius):
		for _, c := range a.Children {
			s.traverse(c, b, st)
		}
	default:
		for _, c := range b.Children {
			s.traverse(a, c, st)
		}
	}
}

// runM2L executes all multipole-to-local conversions into locals of the
// nodes of tt — the source tree itself, or PotentialsAt's target tree — at
// each target node's Degree. It runs one task per target node on the
// work-stealing pool (each target's local is touched by exactly one task
// list, so no synchronization on the expansions is needed), and each
// worker converts with the scratch its id keys.
func (s *sweep) runM2L(tt *tree.Tree) {
	targets := withTasks(tt, s.m2lTasks)
	var mu sync.Mutex
	sched.Run(len(targets), s.e.Cfg.Workers, func(w int, next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			a := targets[i]
			la := multipole.NewLocal(a.Center, a.Degree)
			for _, b := range s.m2lTasks[a] {
				la.AccumulateM2L(b.Mp, s.bufs[w])
			}
			mu.Lock()
			s.locals[a] = la
			mu.Unlock()
		}
	})
}

// runP2P executes all near-field direct sums, one task per target leaf
// (out slots of distinct leaves are disjoint).
func (s *sweep) runP2P(out []float64) {
	t := s.e.Tree
	leaves := withTasks(t, s.p2pTasks)
	sched.Run(len(leaves), s.e.Cfg.Workers, func(_ int, next func() (int, bool)) {
		for li, ok := next(); ok; li, ok = next() {
			a := leaves[li]
			for i := a.Start; i < a.End; i++ {
				xi := t.Pos[i]
				var phi float64
				for _, b := range s.p2pTasks[a] {
					for j := b.Start; j < b.End; j++ {
						if i == j {
							continue
						}
						r := xi.Dist(t.Pos[j])
						if r == 0 {
							continue
						}
						phi += t.Q[j] / r
					}
				}
				out[i] += phi
			}
		}
	})
}

// withTasks lists the nodes of tt that have a task in tasks, in tree
// order: the deterministic task list of a parallel phase.
func withTasks(tt *tree.Tree, tasks map[*tree.Node][]*tree.Node) []*tree.Node {
	nodes := make([]*tree.Node, 0, len(tasks))
	tt.Walk(func(n *tree.Node) {
		if len(tasks[n]) > 0 {
			nodes = append(nodes, n)
		}
	})
	return nodes
}

// workers returns the configured worker count (0 means GOMAXPROCS): the
// most workers a sched.Run fan-out of an evaluation can use, and so the
// number of per-worker scratch buffers it needs.
func (e *Evaluator) workers() int {
	if e.Cfg.Workers > 0 {
		return e.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// downward pushes local expansions to children and evaluates them at leaf
// particles. It runs on one goroutine, with worker 0's scratch.
func (s *sweep) downward(n *tree.Node, inherited *multipole.Local, out []float64) {
	l := s.inherit(n, inherited)
	if n.IsLeaf() {
		if l != nil {
			t := s.e.Tree
			for i := n.Start; i < n.End; i++ {
				out[i] += l.EvaluateBuf(t.Pos[i], s.bufs[0])
			}
		}
		return
	}
	for _, c := range n.Children {
		s.downward(c, l, out)
	}
}

// inherit returns n's local expansion after the downward L2L: n's own M2L
// local (nil if it has none) plus the parent's local re-expanded about
// n.Center.
func (s *sweep) inherit(n *tree.Node, parent *multipole.Local) *multipole.Local {
	l := s.locals[n]
	if parent == nil {
		return l
	}
	if l == nil {
		l = multipole.NewLocal(n.Center, n.Degree)
	}
	l.AccumulateL2L(parent, s.bufs[0])
	return l
}

// EstimateError returns a crude a-priori bound on the relative error of the
// configured FMM on a unit-charge system: alpha^{p+1} scaled by the typical
// number of expansion interactions.
func EstimateError(alpha float64, p int, height int) float64 {
	return float64(height+1) * math.Pow(alpha, float64(p+1))
}
