// Command bemsolve demonstrates the paper's boundary-element application
// end to end: it discretizes the single-layer operator on a chosen surface,
// solves V*sigma = g with GMRES(10) using treecode matrix-vector products,
// and reports convergence (for the sphere, it also checks the analytic
// capacitance C = R).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"treecode/internal/bem"
	"treecode/internal/cliio"
	"treecode/internal/core"
	"treecode/internal/krylov"
	"treecode/internal/mesh"
	"treecode/internal/stats"
	"treecode/internal/vec"
)

func main() {
	surface := flag.String("surface", "sphere", "sphere|propeller|gripper")
	density := flag.Int("density", 2, "mesh density (sphere: subdivision level)")
	degree := flag.Int("degree", 6, "adaptive minimum degree")
	alpha := flag.Float64("alpha", 0.4, "acceptance parameter")
	quad := flag.Int("quad", 6, "Gauss points per element")
	tol := flag.Float64("tol", 1e-6, "GMRES relative residual target")
	restart := flag.Int("restart", 10, "GMRES restart (paper: 10)")
	precond := flag.Bool("precond", false, "use the near-field block-Jacobi preconditioner")
	blockSize := flag.Int("block", 48, "preconditioner block size")
	ob := cliio.ObsFlagVars()
	flag.Parse()

	if err := (core.Config{Degree: *degree, Alpha: *alpha}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	col := ob.Start()

	var m *mesh.Mesh
	switch *surface {
	case "sphere":
		m = mesh.Sphere(*density, 1, vec.V3{})
	case "propeller":
		m = mesh.Propeller(3, *density)
	case "gripper":
		m = mesh.Gripper(*density)
	default:
		fmt.Fprintln(os.Stderr, "unknown surface:", *surface)
		os.Exit(1)
	}
	fmt.Printf("%s: %d elements, %d nodes (%d unknowns)\n",
		*surface, m.NumTris(), m.NumVerts(), m.NumVerts())

	op, err := bem.New(m, *quad, &core.Config{Method: core.Adaptive, Degree: *degree, Alpha: *alpha, Obs: col})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	n := m.NumVerts()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 // unit boundary potential
	}
	x := make([]float64, n)
	opts := krylov.Options{Restart: *restart, MaxIters: 500, Tol: *tol}
	if *precond {
		bj, err := op.BlockPreconditioner(*blockSize)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Precond = bj
		fmt.Printf("near-field block-Jacobi preconditioner, block size %d\n", *blockSize)
	}
	start := time.Now()
	res, err := krylov.GMRES(krylov.OperatorFunc(op.TreeOperator()), b, x, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	fmt.Printf("GMRES(%d): %d matvecs, residual %s, converged=%v, %.2fs\n",
		*restart, res.Iterations, stats.FormatFloat(res.Residual), res.Converged, elapsed.Seconds())
	fmt.Println("residual history (per product):")
	for i, r := range res.History {
		if i%5 == 0 || i == len(res.History)-1 {
			fmt.Printf("  %3d  %s\n", i, stats.FormatFloat(r))
		}
	}
	q := op.IntegrateDensity(x)
	fmt.Printf("total induced charge (capacitance at unit potential): %.5f\n", q)
	if *surface == "sphere" {
		fmt.Printf("analytic capacitance of the unit sphere: 1.00000 (error %.2f%%)\n",
			100*absf(q-1))
	}
	if err := ob.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "bemsolve: writing obs trace: %v\n", err)
		os.Exit(1)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
