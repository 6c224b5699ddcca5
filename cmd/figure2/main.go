// Command figure2 reproduces Figure 2 of the paper: the error and the
// computational cost (multipole terms evaluated) of the original and
// improved methods as the problem size grows, emitted as CSV series ready
// for plotting. The left panel of the paper's figure is (n, error) for both
// methods; the right panel is (n, terms). Unit charges per particle
// (uniform charge density) make the original method's error grow with n.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"treecode/internal/cliio"
	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/stats"
)

func main() {
	dist := flag.String("dist", "uniform", "distribution")
	sizes := flag.String("sizes", "5000,10000,20000,40000,80000,160000", "comma-separated particle counts")
	degree := flag.Int("degree", 4, "fixed degree / adaptive minimum degree")
	alpha := flag.Float64("alpha", 0.5, "acceptance parameter")
	seed := flag.Int64("seed", 1, "workload seed")
	sample := flag.Int("sample", 2000, "reference sample size for large n")
	exactMax := flag.Int("exactmax", 20000, "largest n for full direct reference")
	out := flag.String("o", "", "output file (default stdout)")
	ob := cliio.ObsFlagVars()
	flag.Parse()

	if err := (core.Config{Degree: *degree, Alpha: *alpha}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	col := ob.Start()

	w, werr := cliio.Create(*out)
	if werr != nil {
		fmt.Fprintln(os.Stderr, werr)
		os.Exit(1)
	}

	fmt.Fprintln(w.W, "n,abserr_original,abserr_adaptive,terms_original,terms_adaptive")
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad size:", s)
			continue
		}
		set, err := points.GenerateCharged(points.Distribution(*dist), n, *seed, float64(n), false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		errO, termsO := run(set, core.Original, *degree, *alpha, *sample, *exactMax, *seed, col)
		errA, termsA := run(set, core.Adaptive, *degree, *alpha, *sample, *exactMax, *seed, col)
		fmt.Fprintf(w.W, "%d,%s,%s,%d,%d\n", n,
			stats.FormatFloat(errO), stats.FormatFloat(errA), termsO, termsA)
	}
	if err := w.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "figure2: writing %s: %v\n", w.Name(), err)
		os.Exit(1)
	}
	if err := ob.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "figure2: writing obs trace: %v\n", err)
		os.Exit(1)
	}
}

func run(set *points.Set, method core.Method, degree int, alpha float64, sample, exactMax int, seed int64, col *obs.Collector) (float64, int64) {
	e, err := core.New(set, core.Config{Method: method, Degree: degree, Alpha: alpha, Obs: col})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	phi, st := e.Potentials()
	n := set.N()
	if n <= exactMax {
		return stats.MeanAbsErr(phi, direct.SelfPotentials(set, 0)), st.Terms
	}
	rng := rand.New(rand.NewSource(seed + 7))
	idx := rng.Perm(n)[:sample]
	var sum float64
	for _, i := range idx {
		xi := set.Particles[i].Pos
		var exact float64
		for j, pj := range set.Particles {
			if j == i {
				continue
			}
			exact += pj.Charge / xi.Dist(pj.Pos)
		}
		sum += math.Abs(phi[i] - exact)
	}
	return sum / float64(sample), st.Terms
}
