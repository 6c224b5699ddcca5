package fmm

import (
	"math"
	"sync"
	"time"

	"treecode/internal/multipole"
	"treecode/internal/points"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// Fields evaluates potential and field E = -grad(phi) at every particle
// (self-excluded), in the original particle order.
func (e *Evaluator) Fields() (phi []float64, field []vec.V3, st *Stats) {
	return e.FieldsFor(nil)
}

// FieldsFor is Fields restricted to a target subset: active marks, by
// original particle index, the targets to evaluate; every particle remains
// a source. The dual-tree traversal and M2L conversions are target-node
// work shared by all particles of a node and run unchanged; the restriction
// applies to the per-particle near-field sums and leaf L2P evaluations,
// whose sums are independent per target, so active entries are bitwise
// identical to the corresponding Fields entries. The returned slices are
// full-length with zero entries for inactive particles. A nil mask
// evaluates everything.
func (e *Evaluator) FieldsFor(active []bool) (phi []float64, field []vec.V3, st *Stats) {
	t := e.Tree
	n := len(t.Pos)
	outP := make([]float64, n)
	outF := make([]vec.V3, n)
	st = &Stats{TreeHeight: t.Height, TreeNodes: t.NNodes, BuildTime: e.BuildTime()}
	start := time.Now()

	s := e.newSweep()
	s.traverse(t.Root, t.Root, st)
	s.runM2L()

	// Near field with forces; leaves without an active target are skipped
	// entirely.
	leaves := make([]*tree.Node, 0, len(s.p2pTasks))
	t.Walk(func(nd *tree.Node) {
		if len(s.p2pTasks[nd]) == 0 {
			return
		}
		if active != nil {
			has := false
			for i := nd.Start; i < nd.End; i++ {
				if active[t.Perm[i]] {
					has = true
					break
				}
			}
			if !has {
				return
			}
		}
		leaves = append(leaves, nd)
	})
	e.parallelOver(len(leaves), func(_, li int) {
		a := leaves[li]
		for i := a.Start; i < a.End; i++ {
			if active != nil && !active[t.Perm[i]] {
				continue
			}
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
	})

	// Far field: locals flow down and evaluate with gradients.
	var down func(n *tree.Node, inherited *multipole.Local)
	down = func(n *tree.Node, inherited *multipole.Local) {
		l := s.inherit(n, inherited)
		if n.IsLeaf() {
			if l != nil {
				for i := n.Start; i < n.End; i++ {
					if active != nil && !active[t.Perm[i]] {
						continue
					}
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

	m2l := make(map[*tree.Node][]*tree.Node)
	p2p := make(map[*tree.Node][]*tree.Node)
	var trav func(a, b *tree.Node)
	trav = func(a, b *tree.Node) {
		d := a.Center.Dist(b.Center)
		if d > 0 && a.Radius+b.Radius <= e.Cfg.Alpha*d {
			m2l[a] = append(m2l[a], b)
			st.M2L++
			st.M2LTerms += multipole.Terms(b.Degree)
			return
		}
		aLeaf, bLeaf := a.IsLeaf(), b.IsLeaf()
		switch {
		case aLeaf && bLeaf:
			p2p[a] = append(p2p[a], b)
			st.P2P += int64(a.Count()) * int64(b.Count())
		case bLeaf || (!aLeaf && a.Radius >= b.Radius):
			for _, c := range a.Children {
				trav(c, b)
			}
		default:
			for _, c := range b.Children {
				trav(a, c)
			}
		}
	}
	trav(tt.Root, e.Tree.Root)

	// M2L into target locals (degree = max source degree, floor Cfg.Degree).
	locals := make(map[*tree.Node]*multipole.Local, len(m2l))
	tgtNodes := make([]*tree.Node, 0, len(m2l))
	tt.Walk(func(n *tree.Node) {
		if len(m2l[n]) > 0 {
			tgtNodes = append(tgtNodes, n)
		}
	})
	bufs := e.sweepScratch()
	var localsMu sync.Mutex
	e.parallelOver(len(tgtNodes), func(w, i int) {
		a := tgtNodes[i]
		p := e.Cfg.Degree
		for _, b := range m2l[a] {
			if b.Degree > p {
				p = b.Degree
			}
		}
		la := multipole.NewLocal(a.Center, p)
		for _, b := range m2l[a] {
			la.AccumulateM2L(b.Mp, bufs[w])
		}
		localsMu.Lock()
		locals[a] = la
		localsMu.Unlock()
	})

	out := make([]float64, len(targets)) // target tree order
	// Near field.
	tLeaves := make([]*tree.Node, 0, len(p2p))
	tt.Walk(func(n *tree.Node) {
		if len(p2p[n]) > 0 {
			tLeaves = append(tLeaves, n)
		}
	})
	src := e.Tree
	e.parallelOver(len(tLeaves), func(_, li int) {
		a := tLeaves[li]
		for i := a.Start; i < a.End; i++ {
			x := tt.Pos[i]
			var phi float64
			for _, b := range p2p[a] {
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
	})

	// Downward on the target tree. Inherited locals may have a higher
	// degree than the child's own; the child's local then grows to it.
	var down func(n *tree.Node, inherited *multipole.Local)
	down = func(n *tree.Node, inherited *multipole.Local) {
		l := locals[n]
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
			l.AccumulateL2L(inherited, bufs[0])
		}
		if n.IsLeaf() {
			if l != nil {
				for i := n.Start; i < n.End; i++ {
					out[i] += l.EvaluateBuf(tt.Pos[i], bufs[0])
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
