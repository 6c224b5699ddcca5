// Command nbody is the general-purpose treecode driver: it generates a
// particle distribution, evaluates potentials with the selected method, and
// prints accuracy and cost statistics (optionally advancing an n-body
// simulation with leapfrog).
package main

import (
	"flag"
	"fmt"
	"os"

	"treecode/internal/cliio"
	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/points"
	"treecode/internal/sim"
	"treecode/internal/stats"
	"treecode/internal/vec"
)

func main() {
	dist := flag.String("dist", "uniform", "distribution: uniform|gaussian|multigauss|grid|shell|plummer")
	n := flag.Int("n", 10000, "number of particles")
	method := flag.String("method", "adaptive", "original|adaptive")
	eval := flag.String("eval", "walk", "evaluation mode: walk|batched")
	degree := flag.Int("degree", 4, "multipole degree (minimum for adaptive)")
	alpha := flag.Float64("alpha", 0.5, "acceptance parameter")
	leafCap := flag.Int("leaf", 8, "octree leaf capacity")
	workers := flag.Int("workers", 0, "evaluation goroutines (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "workload seed")
	checkErr := flag.Bool("check", true, "compare against direct summation (O(n^2))")
	steps := flag.Int("steps", 0, "leapfrog steps to advance (0 = potentials only)")
	dt := flag.Float64("dt", 1e-3, "timestep for -steps")
	rungs := flag.Int("rungs", 0, "hierarchical block-timestep rungs for -steps: rung k steps at dt/2^k (0 and 1 both mean one rung, the global-dt leapfrog)")
	eta := flag.Float64("eta", 0, "block-timestep criterion prefactor in dt_i = eta*sqrt(scale/|a_i|) (0 = sim default)")
	ob := cliio.ObsFlagVars()
	flag.Parse()

	m := core.Original
	if *method == "adaptive" {
		m = core.Adaptive
	}
	ev, err := core.ParseEvalMode(*eval)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	col := ob.Start()
	cfg := core.Config{Method: m, Eval: ev, Degree: *degree, Alpha: *alpha, LeafCap: *leafCap, Workers: *workers, Obs: col}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	set, err := points.Generate(points.Distribution(*dist), *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *steps > 0 {
		cfg.Soften = 0.01
		s, err := sim.New(sim.State{Set: set, Vel: make([]vec.V3, set.N())}, sim.Config{
			Dt: *dt, Force: cfg, Block: sim.BlockConfig{MaxRungs: *rungs, Eta: *eta},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		k0, p0, e0 := s.Energy()
		if err := s.Run(*steps); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		k1, p1, e1 := s.Energy()
		fmt.Printf("advanced %d steps of %d-body %s system (dt=%g)\n", *steps, *n, *dist, *dt)
		fmt.Printf("energy: kin %.6g -> %.6g, pot %.6g -> %.6g, total %.6g -> %.6g (drift %.3g)\n",
			k0, k1, p0, p1, e0, e1, (e1-e0)/e0)
		if col != nil {
			r := col.Metrics().Refit
			if r.Updates > 0 {
				fmt.Printf("engine: %d updates (%d refits, %d rebuilds), %d migrants, %d splits, %d merges, max radius inflation %.3f\n",
					r.Updates, r.Refits, r.Rebuilds, r.Migrants, r.Splits, r.Merges, r.RadiusInflationMax)
			}
		}
		if *rungs > 0 {
			if rs := s.Rungs(); rs != nil {
				occ := make([]int, *rungs)
				for _, r := range rs {
					occ[r]++
				}
				fmt.Printf("block: %d rungs, final occupancy %v\n", *rungs, occ)
			}
			if col != nil {
				if b := col.Metrics().Block; b.Substeps > 0 {
					reduction := float64(int64(*n)*b.Substeps) / float64(b.ForceEvals)
					fmt.Printf("block: %d substeps, %d force evals (%.2fx vs global at finest grid), %d promotions, %d demotions, staleness %.3g\n",
						b.Substeps, b.ForceEvals, reduction, b.Promotions, b.Demotions, b.Staleness)
				}
			}
		}
		finishObs(ob)
		return
	}

	e, err := core.New(set, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	phi, st := e.Potentials()
	fmt.Printf("%s treecode (%s eval), %s distribution, n=%d, degree=%d, alpha=%g\n",
		m, ev, *dist, *n, *degree, *alpha)
	fmt.Printf("tree: height %d, %d nodes, %d leaves; build %v\n",
		st.TreeHeight, st.TreeNodes, st.TreeLeaves, st.BuildTime)
	fmt.Printf("eval: %v; %s terms (%d cluster, %d direct interactions); max degree %d\n",
		st.EvalTime, stats.FormatCount(st.Terms), st.PC, st.PP, st.MaxDegree)
	fmt.Printf("predicted error bound per point (mean): %s\n",
		stats.FormatFloat(st.BoundSum/float64(*n)))
	if *checkErr {
		exact := direct.SelfPotentials(set, 0)
		fmt.Printf("relative 2-norm error vs direct: %s\n",
			stats.FormatFloat(stats.RelErr2(phi, exact)))
	}
	finishObs(ob)
}

// finishObs exports the obs trace when -obsjson asked for one.
func finishObs(ob *cliio.ObsFlags) {
	if err := ob.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "nbody: writing obs trace: %v\n", err)
		os.Exit(1)
	}
}
