// Command table2 reproduces Table 2 of the paper: parallel runtimes and
// speedups of the original and improved treecodes on the paper's two
// workloads — uniform40k and non-uniform46k — on a 32-processor machine.
//
// The original experiment ran POSIX threads on a 32-CPU SGI Origin 2000.
// This reproduction (a) runs the real goroutine-parallel evaluator (same
// code path the paper parallelizes: independent per-particle traversals in
// proximity order, aggregated in chunks of w) and reports measured wall-
// clock times for the available cores, and (b) reproduces the 32-processor
// numbers with the deterministic cost simulator: per-chunk work from
// measured interaction counts, costzones placement, and a communication
// term for non-local multipole series — longer series for the improved
// method, hence its slightly lower speedups, exactly the paper's
// observation.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"treecode/internal/cliio"
	"treecode/internal/core"
	"treecode/internal/parallel"
	"treecode/internal/points"
	"treecode/internal/stats"
)

func main() {
	nUniform := flag.Int("uniform", 40000, "uniform workload size (paper: 40k)")
	nGauss := flag.Int("nonuniform", 46000, "non-uniform workload size (paper: 46k)")
	degree := flag.Int("degree", 4, "fixed degree / adaptive minimum degree")
	eval := flag.String("eval", "walk", "evaluation mode for measured runs: walk|batched")
	alpha := flag.Float64("alpha", 0.5, "acceptance parameter")
	procs := flag.Int("procs", 32, "simulated processor count")
	w := flag.Int("w", 64, "particles per chunk")
	seed := flag.Int64("seed", 1, "workload seed")
	ob := cliio.ObsFlagVars()
	flag.Parse()

	ev, err := core.ParseEvalMode(*eval)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := (core.Config{Degree: *degree, Alpha: *alpha, ChunkSize: *w, Eval: ev}).Validate(); err != nil {
		fmt.Println("error:", err)
		return
	}
	col := ob.Start()

	type workload struct {
		name string
		dist points.Distribution
		n    int
	}
	cases := []workload{
		{fmt.Sprintf("uniform%dk", *nUniform/1000), points.Uniform, *nUniform},
		{fmt.Sprintf("non-uniform%dk", *nGauss/1000), points.Gaussian, *nGauss},
	}

	fmt.Printf("== Table 2: runtimes and speedups, %d simulated processors ==\n", *procs)
	fmt.Printf("(host has %d CPU(s); measured times use goroutines, speedups use the cost simulator)\n\n",
		runtime.NumCPU())
	tb := stats.NewTable("Problem", "Method", "Serial(s)", "Parallel(s)", "Speedup", "Efficiency", "CommWords")
	for _, wl := range cases {
		set, err := points.Generate(wl.dist, wl.n, *seed)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		for _, method := range []core.Method{core.Original, core.Adaptive} {
			e, err := core.New(set, core.Config{Method: method, Eval: ev, Degree: *degree, Alpha: *alpha, ChunkSize: *w})
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			serial := parallel.MeasureTraced(e, 1, col).Seconds()
			rep, err := parallel.Simulate(e, *procs, *w, parallel.CostModel{}, col)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			// Simulated parallel wall-clock: serial measured time scaled by
			// the simulated speedup.
			par := serial / rep.Speedup
			tb.AddRow(wl.name, method.String(),
				serial, par, rep.Speedup, rep.Efficiency, stats.FormatCount(int64(rep.CommWords)))
		}
	}
	fmt.Println(tb)

	fmt.Println("Real goroutine scaling on this host (measured):")
	tb2 := stats.NewTable("Problem", "Method", "Workers", "Time(s)")
	for _, wl := range cases {
		set, _ := points.Generate(wl.dist, wl.n, *seed)
		for _, method := range []core.Method{core.Original, core.Adaptive} {
			e, err := core.New(set, core.Config{Method: method, Eval: ev, Degree: *degree, Alpha: *alpha, ChunkSize: *w})
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			workerCounts := []int{1}
			if runtime.NumCPU() > 1 {
				workerCounts = append(workerCounts, runtime.NumCPU())
			}
			for _, workers := range workerCounts {
				tb2.AddRow(wl.name, method.String(), workers, parallel.MeasureTraced(e, workers, col).Seconds())
			}
		}
	}
	fmt.Println(tb2)
	if err := ob.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "table2: writing obs trace:", err)
		os.Exit(1)
	}
}
