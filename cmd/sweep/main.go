// Command sweep runs a parameter grid over (n, alpha, degree, method) and
// emits one CSV row per configuration with error and cost measurements —
// the general research harness behind the per-table drivers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"treecode/internal/cliio"
	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/points"
	"treecode/internal/stats"
)

func main() {
	dist := flag.String("dist", "uniform", "distribution")
	sizes := flag.String("n", "4000,16000", "particle counts")
	alphas := flag.String("alpha", "0.4,0.5,0.6", "acceptance parameters")
	degrees := flag.String("degree", "3,5", "degrees")
	methods := flag.String("method", "original,adaptive", "methods")
	unitCharge := flag.Bool("unitcharge", true, "unit charge per particle")
	seed := flag.Int64("seed", 1, "seed")
	out := flag.String("o", "", "output file (default stdout)")
	evalStr := flag.String("eval", "walk", "evaluation mode: walk or batched")
	ob := cliio.ObsFlagVars()
	flag.Parse()

	evalMode, err := core.ParseEvalMode(*evalStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	col := ob.Start()

	degs, alphaVals := splitInts(*degrees), splitFloats(*alphas)
	for _, deg := range degs {
		for _, alpha := range alphaVals {
			if err := (core.Config{Degree: deg, Alpha: alpha}).Validate(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	w, werr := cliio.Create(*out)
	if werr != nil {
		fmt.Fprintln(os.Stderr, werr)
		os.Exit(1)
	}

	fmt.Fprintln(w.W, "dist,n,method,eval,degree,alpha,relerr,abserr,terms,pc,pp,maxdegree,evalms")
	for _, ns := range splitInts(*sizes) {
		totalAbs := 1.0
		if *unitCharge {
			totalAbs = float64(ns)
		}
		set, err := points.GenerateCharged(points.Distribution(*dist), ns, *seed, totalAbs, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		exact := direct.SelfPotentials(set, 0)
		for _, method := range strings.Split(*methods, ",") {
			m := core.Original
			if strings.TrimSpace(method) == "adaptive" {
				m = core.Adaptive
			}
			for _, deg := range degs {
				for _, alpha := range alphaVals {
					e, err := core.New(set, core.Config{Method: m, Degree: deg, Alpha: alpha, Eval: evalMode, Obs: col})
					if err != nil {
						fmt.Fprintln(os.Stderr, err)
						continue
					}
					phi, st := e.Potentials()
					fmt.Fprintf(w.W, "%s,%d,%s,%s,%d,%g,%s,%s,%d,%d,%d,%d,%.1f\n",
						*dist, ns, m, evalMode, deg, alpha,
						stats.FormatFloat(stats.RelErr2(phi, exact)),
						stats.FormatFloat(stats.MeanAbsErr(phi, exact)),
						st.Terms, st.PC, st.PP, st.MaxDegree,
						float64(st.EvalTime.Microseconds())/1000)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: writing %s: %v\n", w.Name(), err)
		os.Exit(1)
	}
	if err := ob.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: writing obs trace: %v\n", err)
		os.Exit(1)
	}
}

func splitInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		if v, err := strconv.Atoi(strings.TrimSpace(f)); err == nil {
			out = append(out, v)
		}
	}
	return out
}

func splitFloats(s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		if v, err := strconv.ParseFloat(strings.TrimSpace(f), 64); err == nil {
			out = append(out, v)
		}
	}
	return out
}
