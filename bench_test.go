// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section. Each benchmark reports, besides ns/op, the custom
// metrics the paper's tables contain (multipole terms, relative error,
// simulated speedup), so `go test -bench=. -benchmem` regenerates the
// experimental evidence end to end:
//
//	BenchmarkTable1/...   error + term counts, original vs adaptive
//	BenchmarkFigure2/...  the error/cost growth series
//	BenchmarkTable2/...   32-processor simulated speedups
//	BenchmarkTable3/...   BEM matvec error + time vs the degree-9 reference
//	BenchmarkBaseline*    direct summation and FMM reference points
package treecode

import (
	"fmt"
	"math"
	"testing"

	"treecode/internal/bem"
	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/mesh"
	"treecode/internal/obs"
	"treecode/internal/parallel"
	"treecode/internal/points"
	"treecode/internal/stats"
	"treecode/internal/tree"
)

// table1Case runs one Table 1 cell: n particles of dist with unit charges.
func table1Case(b *testing.B, dist points.Distribution, n int, method core.Method) {
	set, err := points.GenerateCharged(dist, n, 1, float64(n), false)
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.New(set, core.Config{Method: method, Degree: 4, Alpha: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	var phi []float64
	var st *core.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi, st = e.Potentials()
	}
	b.StopTimer()
	exact := direct.SelfPotentials(set, 0)
	b.ReportMetric(float64(st.Terms), "terms")
	b.ReportMetric(stats.RelErr2(phi, exact), "relerr")
	b.ReportMetric(stats.MeanAbsErr(phi, exact), "abserr")
}

func BenchmarkTable1(b *testing.B) {
	for _, dist := range []points.Distribution{points.Uniform, points.Gaussian, points.MultiGauss} {
		for _, n := range []int{4000, 8000, 16000} {
			for _, m := range []core.Method{core.Original, core.Adaptive} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", dist, n, m), func(b *testing.B) {
					table1Case(b, dist, n, m)
				})
			}
		}
	}
}

// BenchmarkFigure2 regenerates the growth series behind Figure 2: error and
// terms at geometrically growing n for both methods (same data as Table 1
// but as a denser sweep on the uniform distribution).
func BenchmarkFigure2(b *testing.B) {
	for _, n := range []int{2000, 4000, 8000, 16000, 32000} {
		for _, m := range []core.Method{core.Original, core.Adaptive} {
			b.Run(fmt.Sprintf("n=%d/%s", n, m), func(b *testing.B) {
				set, err := points.GenerateCharged(points.Uniform, n, 1, float64(n), false)
				if err != nil {
					b.Fatal(err)
				}
				e, err := core.New(set, core.Config{Method: m, Degree: 4, Alpha: 0.5})
				if err != nil {
					b.Fatal(err)
				}
				var st *core.Stats
				var phi []float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					phi, st = e.Potentials()
				}
				b.StopTimer()
				b.ReportMetric(float64(st.Terms), "terms")
				if n <= 16000 {
					b.ReportMetric(stats.MeanAbsErr(phi, direct.SelfPotentials(set, 0)), "abserr")
				}
			})
		}
	}
}

// BenchmarkTable2 regenerates the parallel-performance table: simulated
// 32-processor speedups for uniform40k and non-uniform46k, original and
// adaptive.
func BenchmarkTable2(b *testing.B) {
	cases := []struct {
		name string
		dist points.Distribution
		n    int
	}{
		{"uniform40k", points.Uniform, 40000},
		{"nonuniform46k", points.Gaussian, 46000},
	}
	for _, c := range cases {
		for _, m := range []core.Method{core.Original, core.Adaptive} {
			b.Run(fmt.Sprintf("%s/%s", c.name, m), func(b *testing.B) {
				set, err := points.Generate(c.dist, c.n, 1)
				if err != nil {
					b.Fatal(err)
				}
				e, err := core.New(set, core.Config{Method: m, Degree: 4, Alpha: 0.5})
				if err != nil {
					b.Fatal(err)
				}
				var rep *parallel.Report
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err = parallel.Simulate(e, 32, 64, parallel.CostModel{}, nil)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rep.Speedup, "speedup32")
				b.ReportMetric(rep.Efficiency, "efficiency")
				b.ReportMetric(rep.CommWords, "commwords")
			})
		}
	}
}

// BenchmarkTable3 regenerates the BEM single-iteration experiment: one
// treecode matrix-vector product on the propeller and gripper surfaces,
// with error measured against the degree-9 reference product.
func BenchmarkTable3(b *testing.B) {
	surfaces := []struct {
		name string
		m    *mesh.Mesh
	}{
		{"propeller", mesh.Propeller(3, 1)},
		{"gripper", mesh.Gripper(1)},
	}
	for _, s := range surfaces {
		n := s.m.NumVerts()
		src := make([]float64, n)
		for i := range src {
			src[i] = 1 + 0.5*math.Sin(float64(i))
		}
		refOp, err := bem.New(s.m, 6, &core.Config{Method: core.Original, Degree: 9, Alpha: 0.4})
		if err != nil {
			b.Fatal(err)
		}
		ref := make([]float64, n)
		if _, err := refOp.TreeApply(ref, src); err != nil {
			b.Fatal(err)
		}
		for _, m := range []core.Method{core.Original, core.Adaptive} {
			for _, p := range []int{2, 4} {
				b.Run(fmt.Sprintf("%s/%s/p=%d", s.name, m, p), func(b *testing.B) {
					op, err := bem.New(s.m, 6, &core.Config{Method: m, Degree: p, Alpha: 0.4})
					if err != nil {
						b.Fatal(err)
					}
					dst := make([]float64, n)
					var st *core.Stats
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						st, err = op.TreeApply(dst, src)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(stats.RelErr2(dst, ref), "relerr")
					b.ReportMetric(float64(st.Terms), "terms")
				})
			}
		}
	}
}

// BenchmarkComplexityRatio measures the claim behind the paper's 7/3
// analysis: the new/original term ratio at growing n (Theorem on marginal
// extra computation).
func BenchmarkComplexityRatio(b *testing.B) {
	for _, n := range []int{8000, 32000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			set, err := points.GenerateCharged(points.Uniform, n, 1, float64(n), false)
			if err != nil {
				b.Fatal(err)
			}
			var ratio float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				orig, err := core.New(set, core.Config{Method: core.Original, Degree: 4, Alpha: 0.5})
				if err != nil {
					b.Fatal(err)
				}
				_, stO := orig.Potentials()
				adpt, err := core.New(set, core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5})
				if err != nil {
					b.Fatal(err)
				}
				_, stA := adpt.Potentials()
				ratio = float64(stA.Terms) / float64(stO.Terms)
			}
			b.ReportMetric(ratio, "terms-ratio")
		})
	}
}

// BenchmarkObsOverhead measures the cost of the observability layer on the
// hot evaluation path. "off" is the production configuration (nil collector:
// every obs entry point reduces to a single nil check), "on" attaches a
// collector recording the full MAC census, degree histogram, opening ratios,
// and Theorem 2 budget. The contract is that "off" stays within ~2% of a
// build that predates the obs layer; comparing the two sub-benchmarks shows
// what turning instrumentation on actually costs.
func BenchmarkObsOverhead(b *testing.B) {
	set, err := points.GenerateCharged(points.Uniform, 16000, 1, 16000, false)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, instrument bool) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var col *obs.Collector
			if instrument {
				// A fresh collector per iteration keeps span memory bounded
				// and charges the setup cost to the instrumented case.
				col = obs.New()
			}
			e, err := core.New(set, core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5, Obs: col})
			if err != nil {
				b.Fatal(err)
			}
			e.Potentials()
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkBaselineDirect is the exact-summation baseline the treecodes are
// measured against.
func BenchmarkBaselineDirect(b *testing.B) {
	set, _ := points.Generate(points.Uniform, 8000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		direct.SelfPotentials(set, 0)
	}
}

// BenchmarkBaselineFMM is the FMM reference point (the paper's "ongoing
// work" extension).
func BenchmarkBaselineFMM(b *testing.B) {
	parts, _ := Generate(Uniform, 8000, 1)
	f, err := NewFMM(parts, FMMConfig{Degree: 4, Alpha: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Potentials()
	}
}

// BenchmarkGMRESSolve regenerates the paper's convergence claim: a full
// GMRES(10) boundary solve with treecode products.
func BenchmarkGMRESSolve(b *testing.B) {
	m := mesh.Sphere(2, 1, Vec3{})
	bp, err := NewBoundaryProblem(m, BoundaryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	g := make([]float64, bp.N())
	for i := range g {
		g[i] = 1
	}
	var res *SolveResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = bp.Solve(g, 1e-6, 300)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Iterations), "matvecs")
	b.ReportMetric(math.Abs(bp.TotalCharge(res.Density)-1), "cap-error")
}

// constructionSet is the 100k-particle workload of the construction
// benchmarks (BenchmarkTreeBuild / BenchmarkUpward / BenchmarkRecharge),
// matching the tentpole target "tree build + upward on 100k particles".
func constructionSet(b *testing.B) *points.Set {
	b.Helper()
	set, err := points.Generate(points.Uniform, 100000, 42)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkTreeBuild times the parallel octree construction at 1, 4, and 8
// workers.
func BenchmarkTreeBuild(b *testing.B) {
	set := constructionSet(b)
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("recursive/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tree.Build(set, tree.Config{LeafCap: 8, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpward times the level-synchronized P2M/M2M pass alone.
func BenchmarkUpward(b *testing.B) {
	set := constructionSet(b)
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			e, err := core.New(set, core.Config{Method: core.Adaptive, Alpha: 0.5, Degree: 4, Workers: w})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Upward()
			}
		})
	}
}

// BenchmarkRecharge times SetCharges — the per-GMRES-iteration cost of the
// BEM solver — for both evaluation modes at 1, 4, and 8 workers.
func BenchmarkRecharge(b *testing.B) {
	set := constructionSet(b)
	q := make([]float64, set.N())
	for i, p := range set.Particles {
		q[i] = 1.1 * p.Charge
	}
	for _, mode := range []core.EvalMode{core.EvalWalk, core.EvalBatched} {
		for _, w := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode, w), func(b *testing.B) {
				e, err := core.New(set, core.Config{Method: core.Adaptive, Alpha: 0.5, Degree: 4, Workers: w, Eval: mode})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.SetCharges(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
