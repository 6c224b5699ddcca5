// Package precond provides the preconditioner used with GMRES on the
// boundary-element systems: block Jacobi over spatial vertex clusters.
// First-kind single-layer systems on open sheets (the propeller blades)
// are ill-conditioned; near-field block preconditioning — the approach
// of the authors' companion work on hierarchical solvers for boundary
// element methods — restores the fast GMRES(10) convergence the paper
// reports.
package precond

import (
	"fmt"

	"treecode/internal/linalg"
)

// BlockJacobi inverts dense diagonal blocks over disjoint index clusters.
type BlockJacobi struct {
	blocks  [][]int
	factors []*linalg.LU
	n       int
}

// NewBlockJacobi factors the given dense blocks. blocks[k] lists the global
// indices of block k (disjoint, covering 0..n-1); mats[k] is the |blocks[k]|
// square sub-matrix A[blocks[k]][blocks[k]].
func NewBlockJacobi(n int, blocks [][]int, mats []*linalg.Dense) (*BlockJacobi, error) {
	if len(blocks) != len(mats) {
		return nil, fmt.Errorf("precond: %d blocks but %d matrices", len(blocks), len(mats))
	}
	covered := make([]bool, n)
	b := &BlockJacobi{blocks: blocks, n: n}
	for k, idx := range blocks {
		if mats[k].N != len(idx) {
			return nil, fmt.Errorf("precond: block %d has %d indices but a %d matrix", k, len(idx), mats[k].N)
		}
		for _, i := range idx {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("precond: block %d index %d out of range", k, i)
			}
			if covered[i] {
				return nil, fmt.Errorf("precond: index %d in two blocks", i)
			}
			covered[i] = true
		}
		f, err := mats[k].Factor()
		if err != nil {
			return nil, fmt.Errorf("precond: block %d singular: %w", k, err)
		}
		b.factors = append(b.factors, f)
	}
	for i, c := range covered {
		if !c {
			return nil, fmt.Errorf("precond: index %d not covered by any block", i)
		}
	}
	return b, nil
}

// Apply implements the krylov.Operator contract (z = M^{-1} r).
func (b *BlockJacobi) Apply(dst, src []float64) {
	for k, idx := range b.blocks {
		local := make([]float64, len(idx))
		for j, i := range idx {
			local[j] = src[i]
		}
		sol := b.factors[k].Solve(local)
		for j, i := range idx {
			dst[i] = sol[j]
		}
	}
}
