// Command lemma1 validates the geometric content of the paper's Figure 1
// and Lemmas 1-2 empirically: for real treecode traversals it measures the
// distance-to-size ratio d/s of every accepted interaction (Lemma 1 bounds
// it to a fixed annulus) and the number of same-size interactions per
// particle (Lemma 2 bounds it by the constant K(alpha)).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"treecode/internal/bounds"
	"treecode/internal/cliio"
	"treecode/internal/core"
	"treecode/internal/mac"
	"treecode/internal/points"
	"treecode/internal/stats"
	"treecode/internal/tree"
)

func main() {
	n := flag.Int("n", 20000, "particles")
	dist := flag.String("dist", "uniform", "distribution")
	alphas := flag.String("alphas", "0.3,0.5,0.7", "comma-separated alpha values")
	seed := flag.Int64("seed", 1, "seed")
	ob := cliio.ObsFlagVars()
	flag.Parse()

	col := ob.Start()

	alphaList := splitFloats(*alphas)
	for _, alpha := range alphaList {
		if err := (core.Config{Degree: 2, Alpha: alpha}).Validate(); err != nil {
			fmt.Println(err)
			return
		}
	}

	set, err := points.Generate(points.Distribution(*dist), *n, *seed)
	if err != nil {
		fmt.Println(err)
		return
	}

	tb := stats.NewTable("alpha", "d/s min", "d/s max", "Lemma1 lo", "Lemma1 hi",
		"maxPerSize", "K(alpha)")
	for _, alpha := range alphaList {
		e, err := core.New(set, core.Config{
			Degree: 2, Alpha: alpha, MAC: mac.BoxAlpha{Alpha: alpha}, Obs: col,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		tr := e.Tree
		minRatio, maxRatio := math.Inf(1), 0.0
		maxPerSize := 0
		for ti := 0; ti < len(tr.Pos); ti += 97 {
			x := tr.Pos[ti]
			perLevel := map[int]int{}
			e.VisitInteractions(x, ti, func(nd *tree.Node, _ int) {
				if nd == tr.Root {
					return
				}
				//lint:ignore nanflow node cell sizes are halved from a positive root extent and never reach zero
				r := x.Dist(nd.Center) / nd.Size()
				if r < minRatio {
					minRatio = r
				}
				if r > maxRatio {
					maxRatio = r
				}
				perLevel[nd.Level]++
			}, nil)
			for _, c := range perLevel {
				if c > maxPerSize {
					maxPerSize = c
				}
			}
		}
		lo, hi := bounds.DistanceRatioChargeCenter(alpha)
		tb.AddRow(alpha, minRatio, maxRatio, lo, hi, maxPerSize,
			bounds.MaxInteractionsPerSize(alpha))
	}
	fmt.Println("== Figure 1 / Lemmas 1-2: empirical interaction geometry ==")
	fmt.Println("(d/s ratios must lie within [lo, hi]; per-size counts below K)")
	fmt.Println(tb)
	if err := ob.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "lemma1: writing obs trace:", err)
		os.Exit(1)
	}
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
