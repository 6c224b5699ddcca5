// Package fmm implements a Fast Multipole Method on the same octree and
// multipole machinery as the treecode. The paper's closing section notes
// that its adaptive-degree results "can easily be extended to the Fast
// Multipole Method"; this package is that extension.
//
// The algorithm is the dual-tree-traversal formulation, which works
// unchanged on adaptive (non-uniform) trees:
//
//	upward:   P2M and M2M on the source tree (the treecode's own pass).
//	traverse: recursively pair target and source nodes. Well-separated
//	          pairs (rA + rB <= alpha * d) convert the source multipole to
//	          a local expansion of the target (M2L); inseparable leaf
//	          pairs interact directly (P2P); otherwise the larger node is
//	          split.
//	downward: locals flow to children (L2L) and evaluate at particles
//	          (L2P), added to the P2P near field.
//
// Potentials, Fields and PotentialsAt run one evaluation pass — traverse,
// M2L, P2P, downward — over a target tree: the source tree itself, or a
// tree over PotentialsAt's points. Each hands the pass only its near
// kernel and far (L2P) step.
//
// Degrees follow the evaluator's method: a fixed p for Original, the
// Theorem 3 per-cluster degree for Adaptive. M2L consumes the full source
// expansion; see runM2L and inherit for the degree of a local.
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
	"treecode/internal/vec"
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
	// Workers is the number of goroutines for the source tree's build,
	// refits and upward pass, PotentialsAt's target-tree build, and the
	// M2L and P2P phases (the traversal and the downward pass are serial
	// and cheap). 0 means GOMAXPROCS. Results are identical for any worker
	// count.
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
// SetCharges calls the evaluator is immutable, so concurrent evaluations
// are safe: all per-evaluation state lives in a sweep.
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

// sweep is the mutable state of one evaluation pass: its target tree and
// kernel, the task lists of the dual-tree traversal, the accumulated local
// expansions and the per-worker scratch of the translation kernels. It is
// kept per call, so concurrent evaluations share neither maps nor scratch.
type sweep struct {
	e        *Evaluator
	tt       *tree.Tree // target tree
	grow     bool       // tt is not the source tree; see runM2L and inherit
	k        kernel
	locals   map[*tree.Node]*multipole.Local
	m2lTasks map[*tree.Node][]*tree.Node
	p2pTasks map[*tree.Node][]*tree.Node
	bufs     [][]complex128 // one per worker; see sweepScratch
}

// sweepScratch returns one scratch buffer per worker, of
// multipole.M2LBufLen at the largest local and source degree of an
// evaluation: enough for any of its M2Ls, and so for each of its L2L and
// L2P steps too.
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
	out := make([]float64, len(e.Tree.Pos))
	return out, e.eval("fmm/eval", e.Tree, potentialKernel(out))
}

// Fields evaluates potential and field E = -grad(phi) at every particle
// (self-excluded), in the original particle order.
func (e *Evaluator) Fields() (phi []float64, field []vec.V3, st *Stats) {
	n := len(e.Tree.Pos)
	k := fieldKernel{phi: make([]float64, n), field: make([]vec.V3, n)}
	return k.phi, k.field, e.eval("fmm/fields", e.Tree, k)
}

// PotentialsAt evaluates the potential at arbitrary target points (no
// self-exclusion) with a target-side tree: well-separated (target cluster,
// source cluster) pairs interact through M2L into target-tree locals, the
// rest through direct sums. The local degree of each target cluster adapts
// to the largest source degree it receives, so the adaptive method's
// accuracy carries over to off-particle evaluation.
func (e *Evaluator) PotentialsAt(targets []vec.V3) ([]float64, *Stats, error) {
	if len(targets) == 0 {
		return nil, e.newStats(), nil
	}
	// Geometry-only target tree (unit weights).
	tset := &points.Set{Particles: make([]points.Particle, len(targets))}
	for i, x := range targets {
		tset.Particles[i] = points.Particle{Pos: x, Charge: 1}
	}
	tt, err := tree.Build(tset, tree.Config{LeafCap: e.Cfg.LeafCap, Workers: e.Cfg.Workers})
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, len(targets))
	return out, e.eval("fmm/potentials-at", tt, potentialKernel(out)), nil
}

// newStats returns an evaluation's stats before it runs.
func (e *Evaluator) newStats() *Stats {
	t := e.Tree
	return &Stats{TreeHeight: t.Height, TreeNodes: t.NNodes, BuildTime: e.BuildTime(), UpTerms: e.UpwardTerms()}
}

// eval runs the evaluation pass of target tree tt against the source tree
// with k, under a top-level span named span: the serial dual-tree
// traversal, then M2L and P2P on the pool (each target node's local and
// each target leaf's near sums are independent, so results are
// bit-identical at any worker count), then the serial downward pass.
func (e *Evaluator) eval(span string, tt *tree.Tree, k kernel) *Stats {
	st := e.newStats()
	start := time.Now()
	s := &sweep{
		e:        e,
		tt:       tt,
		grow:     tt != e.Tree,
		k:        k,
		locals:   make(map[*tree.Node]*multipole.Local, tt.NNodes),
		m2lTasks: make(map[*tree.Node][]*tree.Node),
		p2pTasks: make(map[*tree.Node][]*tree.Node),
		bufs:     e.sweepScratch(),
	}
	esp := e.Cfg.Obs.Start(span)
	sp := esp.Child("traverse")
	s.traverse(tt.Root, e.Tree.Root, st)
	sp.End()
	sp = esp.Child("m2l")
	s.runM2L()
	sp.End()
	sp = esp.Child("p2p")
	s.runP2P()
	sp.End()
	sp = esp.Child("downward")
	s.downward(tt.Root, nil)
	sp.End()
	esp.End()
	st.EvalTime = time.Since(start)
	return st
}

// kernel is an entry point's steps at one target particle: the near-field
// sum over the particles of source leaves srcs, and the far (L2P) step of
// local l. Both add into slot i, the target's original index; x is its
// position and buf the worker's scratch.
type kernel interface {
	near(i int, x vec.V3, src *tree.Tree, srcs []*tree.Node)
	far(i int, x vec.V3, l *multipole.Local, buf []complex128)
}

// potentialKernel accumulates potentials.
type potentialKernel []float64

// near skips coincident pairs, and so the self pair when the targets are
// the sources.
//
//treecode:hot
func (out potentialKernel) near(i int, x vec.V3, src *tree.Tree, srcs []*tree.Node) {
	var phi float64
	for _, b := range srcs {
		for j := b.Start; j < b.End; j++ {
			r := x.Dist(src.Pos[j])
			if r == 0 {
				continue
			}
			phi += src.Q[j] / r
		}
	}
	out[i] += phi
}

func (out potentialKernel) far(i int, x vec.V3, l *multipole.Local, buf []complex128) {
	out[i] += l.EvaluateBuf(x, buf)
}

// fieldKernel accumulates potentials and fields E = -grad(phi).
type fieldKernel struct {
	phi   []float64
	field []vec.V3
}

// near skips coincident pairs, and so the self pair.
//
//treecode:hot
func (k fieldKernel) near(i int, x vec.V3, src *tree.Tree, srcs []*tree.Node) {
	var p float64
	var f vec.V3
	for _, b := range srcs {
		for j := b.Start; j < b.End; j++ {
			d := x.Sub(src.Pos[j])
			r2 := d.Norm2()
			if r2 == 0 {
				continue
			}
			invR := 1 / math.Sqrt(r2)
			p += src.Q[j] * invR
			f = f.Add(d.Scale(src.Q[j] * invR / r2))
		}
	}
	k.phi[i] += p
	k.field[i] = k.field[i].Add(f)
}

func (k fieldKernel) far(i int, x vec.V3, l *multipole.Local, buf []complex128) {
	p, g := l.EvaluateFieldBuf(x, buf)
	k.phi[i] += p
	k.field[i] = k.field[i].Add(g.Neg()) // E = -grad(phi)
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
// target tree's nodes. It runs one task per target node on the
// work-stealing pool (each target's local is touched by exactly one task
// list, so no synchronization on the expansions is needed), and each
// worker converts with the scratch its id keys. A local takes its node's
// degree on the source tree; on a target tree, whose nodes select none,
// it takes the largest degree of its sources, floored at Cfg.Degree.
func (s *sweep) runM2L() {
	targets := withTasks(s.tt, s.m2lTasks)
	var mu sync.Mutex
	sched.Run(len(targets), s.e.Cfg.Workers, func(w int, next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			a := targets[i]
			p := a.Degree
			if s.grow {
				p = s.e.Cfg.Degree
				for _, b := range s.m2lTasks[a] {
					p = max(p, b.Degree)
				}
			}
			la := multipole.NewLocal(a.Center, p)
			for _, b := range s.m2lTasks[a] {
				la.AccumulateM2L(b.Mp, s.bufs[w])
			}
			mu.Lock()
			s.locals[a] = la
			mu.Unlock()
		}
	})
}

// runP2P executes all near-field direct sums with the kernel's near step,
// one task per target leaf (output slots of distinct leaves are disjoint).
func (s *sweep) runP2P() {
	tt, src := s.tt, s.e.Tree
	leaves := withTasks(tt, s.p2pTasks)
	sched.Run(len(leaves), s.e.Cfg.Workers, func(_ int, next func() (int, bool)) {
		for li, ok := next(); ok; li, ok = next() {
			a := leaves[li]
			srcs := s.p2pTasks[a]
			for i := a.Start; i < a.End; i++ {
				s.k.near(tt.Perm[i], tt.Pos[i], src, srcs)
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
// particles with the kernel's far step. It runs on one goroutine, with
// worker 0's scratch.
func (s *sweep) downward(n *tree.Node, inherited *multipole.Local) {
	l := s.inherit(n, inherited)
	if n.IsLeaf() {
		if l != nil {
			for i := n.Start; i < n.End; i++ {
				s.k.far(s.tt.Perm[i], s.tt.Pos[i], l, s.bufs[0])
			}
		}
		return
	}
	for _, c := range n.Children {
		s.downward(c, l)
	}
}

// inherit returns n's local expansion after the downward L2L: n's own M2L
// local (nil if it has none) plus the parent's local re-expanded about
// n.Center. On the source tree the local keeps n's degree, and L2L
// truncates a parent of higher degree. On a target tree it grows to the
// largest of Cfg.Degree, the parent's degree and its own.
func (s *sweep) inherit(n *tree.Node, parent *multipole.Local) *multipole.Local {
	l := s.locals[n]
	if parent == nil {
		return l
	}
	deg := n.Degree
	if s.grow {
		deg = max(s.e.Cfg.Degree, parent.Degree)
		if l != nil {
			deg = max(deg, l.Degree)
		}
	}
	if l == nil || l.Degree < deg {
		grown := multipole.NewLocal(n.Center, deg)
		if l != nil {
			copy(grown.Coeff, l.Coeff)
		}
		l = grown
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
