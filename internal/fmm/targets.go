package fmm

import (
	"math"
	"time"

	"treecode/internal/multipole"
	"treecode/internal/points"
	"treecode/internal/sched"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// Fields evaluates potential and field E = -grad(phi) at every particle
// (self-excluded), in the original particle order.
func (e *Evaluator) Fields() (phi []float64, field []vec.V3, st *Stats) {
	t := e.Tree
	n := len(t.Pos)
	outP := make([]float64, n)
	outF := make([]vec.V3, n)
	st = &Stats{TreeHeight: t.Height, TreeNodes: t.NNodes, BuildTime: e.BuildTime()}
	start := time.Now()

	s := e.newSweep()
	s.traverse(t.Root, t.Root, st)
	s.runM2L(t)

	// Near field with forces.
	leaves := withTasks(t, s.p2pTasks)
	sched.Run(len(leaves), e.Cfg.Workers, func(_ int, next func() (int, bool)) {
		for li, ok := next(); ok; li, ok = next() {
			a := leaves[li]
			for i := a.Start; i < a.End; i++ {
				xi := t.Pos[i]
				var p float64
				var f vec.V3
				for _, b := range s.p2pTasks[a] {
					for j := b.Start; j < b.End; j++ {
						if i == j {
							continue
						}
						d := xi.Sub(t.Pos[j])
						r2 := d.Norm2()
						if r2 == 0 {
							continue
						}
						invR := 1 / math.Sqrt(r2)
						p += t.Q[j] * invR
						f = f.Add(d.Scale(t.Q[j] * invR / r2))
					}
				}
				outP[i] += p
				outF[i] = outF[i].Add(f)
			}
		}
	})

	// Far field: locals flow down and evaluate with gradients.
	var down func(n *tree.Node, inherited *multipole.Local)
	down = func(n *tree.Node, inherited *multipole.Local) {
		l := s.inherit(n, inherited)
		if n.IsLeaf() {
			if l != nil {
				for i := n.Start; i < n.End; i++ {
					p, g := l.EvaluateFieldBuf(t.Pos[i], s.bufs[0])
					outP[i] += p
					outF[i] = outF[i].Add(g.Neg()) // E = -grad(phi)
				}
			}
			return
		}
		for _, c := range n.Children {
			down(c, l)
		}
	}
	down(t.Root, nil)

	st.EvalTime = time.Since(start)
	phi = make([]float64, n)
	field = make([]vec.V3, n)
	for i, orig := range t.Perm {
		phi[orig] = outP[i]
		field[orig] = outF[i]
	}
	return phi, field, st
}

// PotentialsAt evaluates the potential at arbitrary target points (no
// self-exclusion) with a target-side tree: well-separated (target cluster,
// source cluster) pairs interact through M2L into target-tree locals, the
// rest through direct sums. The local degree of each target cluster adapts
// to the largest source degree it receives, so the adaptive method's
// accuracy carries over to off-particle evaluation.
func (e *Evaluator) PotentialsAt(targets []vec.V3) ([]float64, *Stats, error) {
	st := &Stats{TreeHeight: e.Tree.Height, TreeNodes: e.Tree.NNodes, BuildTime: e.BuildTime()}
	if len(targets) == 0 {
		return nil, st, nil
	}
	// Geometry-only target tree (unit weights).
	tset := &points.Set{Particles: make([]points.Particle, len(targets))}
	for i, x := range targets {
		tset.Particles[i] = points.Particle{Pos: x, Charge: 1}
	}
	tt, err := tree.Build(tset, tree.Config{LeafCap: e.Cfg.LeafCap})
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()

	s := e.newSweep()
	s.traverse(tt.Root, e.Tree.Root, st)
	// A target cluster's local takes the largest source degree it
	// receives, floored at Cfg.Degree.
	for a, srcs := range s.m2lTasks {
		a.Degree = e.Cfg.Degree
		for _, b := range srcs {
			a.Degree = max(a.Degree, b.Degree)
		}
	}
	s.runM2L(tt)

	out := make([]float64, len(targets)) // target tree order
	// Near field.
	tLeaves := withTasks(tt, s.p2pTasks)
	src := e.Tree
	sched.Run(len(tLeaves), e.Cfg.Workers, func(_ int, next func() (int, bool)) {
		for li, ok := next(); ok; li, ok = next() {
			a := tLeaves[li]
			for i := a.Start; i < a.End; i++ {
				x := tt.Pos[i]
				var phi float64
				for _, b := range s.p2pTasks[a] {
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
		}
	})

	// Downward on the target tree. Inherited locals may have a higher
	// degree than the child's own; the child's local then grows to it.
	var down func(n *tree.Node, inherited *multipole.Local)
	down = func(n *tree.Node, inherited *multipole.Local) {
		l := s.locals[n]
		if inherited != nil {
			deg := max(e.Cfg.Degree, inherited.Degree)
			if l != nil {
				deg = max(deg, l.Degree)
			}
			if l == nil || l.Degree < deg {
				grown := multipole.NewLocal(n.Center, deg)
				if l != nil {
					copy(grown.Coeff, l.Coeff)
				}
				l = grown
			}
			l.AccumulateL2L(inherited, s.bufs[0])
		}
		if n.IsLeaf() {
			if l != nil {
				for i := n.Start; i < n.End; i++ {
					out[i] += l.EvaluateBuf(tt.Pos[i], s.bufs[0])
				}
			}
			return
		}
		for _, c := range n.Children {
			down(c, l)
		}
	}
	down(tt.Root, nil)

	st.EvalTime = time.Since(start)
	res := make([]float64, len(targets))
	for i, orig := range tt.Perm {
		res[orig] = out[i]
	}
	return res, st, nil
}
