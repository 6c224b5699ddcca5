// Package bem discretizes the single-layer potential of classical potential
// theory on a triangle mesh and exposes it as a square operator, exactly as
// the paper's boundary-element experiments do:
//
//	(V sigma)(x_i) = integral over the surface of sigma(y)/|x_i - y| dS(y)
//
// with a piecewise-linear (vertex) basis for sigma, collocation at the mesh
// vertices, and fixed Gaussian quadrature inside each element. The Gauss
// points become point charges of strength sigma(y_g) * w_g * area and are
// inserted into the treecode's hierarchical domain representation; one
// matrix-vector product is one treecode potential evaluation at the
// vertices, recomputing only the upward pass each iteration ("the multipole
// series are computed a-priori" for the tree that never changes).
package bem

import (
	"fmt"

	"treecode/internal/core"
	"treecode/internal/linalg"
	"treecode/internal/mesh"
	"treecode/internal/points"
	"treecode/internal/precond"
	"treecode/internal/quadrature"
	"treecode/internal/tree"
	"treecode/internal/vec"
)

// Source is one quadrature point: a point charge whose strength is a linear
// combination of the three vertex densities of its triangle.
type Source struct {
	Pos    vec.V3
	Verts  [3]int     // the triangle's vertex indices
	Weight [3]float64 // w_g * area * phi_j(y_g) for each vertex j
}

// Operator is the discretized single-layer operator.
type Operator struct {
	Mesh    *mesh.Mesh
	Sources []Source

	// tree-accelerated path
	eval   *core.Evaluator
	charge []float64 // scratch: per-source charges
}

// New builds the operator with quadPts Gauss points per element (the paper
// uses 6) and, if cfg is non-nil, a treecode evaluator over the Gauss
// points configured by *cfg for fast matrix-vector products. A nil cfg
// builds the exact (direct-summation) operator only.
func New(m *mesh.Mesh, quadPts int, cfg *core.Config) (*Operator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	rule, err := quadrature.Rule(quadPts)
	if err != nil {
		return nil, err
	}
	o := &Operator{Mesh: m}
	for t := range m.Tris {
		a, b, c := m.TriVerts(t)
		area := m.Area(t)
		for _, p := range rule {
			o.Sources = append(o.Sources, Source{
				Pos:   p.Map(a, b, c),
				Verts: m.Tris[t],
				Weight: [3]float64{
					p.W * area * p.L1,
					p.W * area * p.L2,
					p.W * area * p.L3,
				},
			})
		}
	}
	o.charge = make([]float64, len(o.Sources))
	if cfg != nil {
		set := &points.Set{Particles: make([]points.Particle, len(o.Sources))}
		for i, s := range o.Sources {
			// Positive placeholder charges (the quadrature measure itself)
			// drive tree construction and adaptive degree selection; actual
			// charges are installed per product via SetCharges, which keeps
			// the decomposition and degrees fixed as the paper prescribes.
			w := s.Weight[0] + s.Weight[1] + s.Weight[2]
			set.Particles[i] = points.Particle{Pos: s.Pos, Charge: w}
		}
		e, err := core.New(set, *cfg)
		if err != nil {
			return nil, err
		}
		o.eval = e
	}
	return o, nil
}

// N returns the operator dimension (number of mesh vertices).
func (o *Operator) N() int { return o.Mesh.NumVerts() }

// charges fills o.charge with the source strengths for density src.
func (o *Operator) charges(src []float64) {
	for i, s := range o.Sources {
		o.charge[i] = s.Weight[0]*src[s.Verts[0]] +
			s.Weight[1]*src[s.Verts[1]] +
			s.Weight[2]*src[s.Verts[2]]
	}
}

// Apply computes dst = V*src by direct summation over all Gauss points —
// the exact discrete operator, O(verts * sources).
func (o *Operator) Apply(dst, src []float64) {
	o.charges(src)
	for i, x := range o.Mesh.Verts {
		var phi float64
		for g, s := range o.Sources {
			r := x.Dist(s.Pos)
			if r == 0 {
				continue
			}
			phi += o.charge[g] / r
		}
		dst[i] = phi
	}
}

// TreeApply computes dst = V*src with the treecode and returns the
// evaluation stats. New must have been called with a non-nil cfg.
func (o *Operator) TreeApply(dst, src []float64) (*core.Stats, error) {
	if o.eval == nil {
		return nil, fmt.Errorf("bem: operator built without a treecode")
	}
	o.charges(src)
	if err := o.eval.SetCharges(o.charge); err != nil {
		return nil, err
	}
	phi, st := o.eval.PotentialsAt(o.Mesh.Verts)
	copy(dst, phi)
	return st, nil
}

// TreeOperator adapts the treecode product to the krylov.Operator interface
// (errors cannot occur after construction succeeded, so they panic).
func (o *Operator) TreeOperator() func(dst, src []float64) {
	return func(dst, src []float64) {
		if _, err := o.TreeApply(dst, src); err != nil {
			panic(err)
		}
	}
}

// Dense assembles the full matrix (small meshes only: O(verts^2) memory).
func (o *Operator) Dense() *linalg.Dense {
	n := o.N()
	d := linalg.NewDense(n)
	for i, x := range o.Mesh.Verts {
		for _, s := range o.Sources {
			r := x.Dist(s.Pos)
			if r == 0 {
				continue
			}
			inv := 1 / r
			for k := 0; k < 3; k++ {
				d.Add(i, s.Verts[k], s.Weight[k]*inv)
			}
		}
	}
	return d
}

// vertexSources returns, per vertex, the (source index, corner slot) pairs
// whose weight involves that vertex — the sparse column structure of the
// operator.
func (o *Operator) vertexSources() [][][2]int {
	adj := make([][][2]int, o.N())
	for g, s := range o.Sources {
		for k := 0; k < 3; k++ {
			v := s.Verts[k]
			adj[v] = append(adj[v], [2]int{g, k})
		}
	}
	return adj
}

// Entry computes the single matrix entry A[i][j] directly from the sparse
// column structure (adj from vertexSources).
func (o *Operator) entry(i, j int, adj [][][2]int) float64 {
	x := o.Mesh.Verts[i]
	var a float64
	for _, gk := range adj[j] {
		s := o.Sources[gk[0]]
		r := x.Dist(s.Pos)
		if r == 0 {
			continue
		}
		a += s.Weight[gk[1]] / r
	}
	return a
}

// BlockPreconditioner builds a near-field block-Jacobi preconditioner: the
// mesh vertices are partitioned into spatial clusters of at most blockSize
// by an octree, and the exact sub-matrix of each cluster is factored. This
// is the hierarchical near-field preconditioning of the authors' companion
// work, and it is what makes GMRES(10) converge quickly on the open-sheet
// (propeller/gripper) first-kind systems.
func (o *Operator) BlockPreconditioner(blockSize int) (*precond.BlockJacobi, error) {
	if blockSize <= 0 {
		blockSize = 48
	}
	vset := &points.Set{Particles: make([]points.Particle, o.N())}
	for i, v := range o.Mesh.Verts {
		vset.Particles[i] = points.Particle{Pos: v, Charge: 1}
	}
	vt, err := tree.Build(vset, tree.Config{LeafCap: blockSize})
	if err != nil {
		return nil, err
	}
	adj := o.vertexSources()
	var blocks [][]int
	var mats []*linalg.Dense
	for _, leaf := range vt.Leaves() {
		idx := make([]int, 0, leaf.Count())
		for t := leaf.Start; t < leaf.End; t++ {
			idx = append(idx, vt.Perm[t])
		}
		m := linalg.NewDense(len(idx))
		for a, i := range idx {
			for b, j := range idx {
				m.Set(a, b, o.entry(i, j, adj))
			}
		}
		blocks = append(blocks, idx)
		mats = append(mats, m)
	}
	return precond.NewBlockJacobi(o.N(), blocks, mats)
}

// IntegrateDensity returns the total charge integral of a vertex density:
// sum_j sigma_j * integral of phi_j = sum over sources of its weighted
// density (the same quadrature as the operator).
func (o *Operator) IntegrateDensity(sigma []float64) float64 {
	var q float64
	for _, s := range o.Sources {
		q += s.Weight[0]*sigma[s.Verts[0]] +
			s.Weight[1]*sigma[s.Verts[1]] +
			s.Weight[2]*sigma[s.Verts[2]]
	}
	return q
}

// Evaluator exposes the underlying treecode evaluator (nil if none).
func (o *Operator) Evaluator() *core.Evaluator { return o.eval }
