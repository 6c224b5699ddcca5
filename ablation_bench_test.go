// Ablation benchmarks for the design choices DESIGN.md calls out: the
// acceptance-criterion form, the octree leaf capacity, the parallel
// schedule and chunk size, and the O(p^4) vs rotation-accelerated O(p^3)
// translation operators. Each reports the metric the choice trades off
// (error, terms, speedup) so `go test -bench=Ablation` quantifies every
// knob.
package treecode

import (
	"fmt"
	"testing"

	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/mac"
	"treecode/internal/parallel"
	"treecode/internal/points"
	"treecode/internal/stats"
)

// BenchmarkAblationMAC compares the radius-based criterion (sharp, used by
// the error bounds) with the box-dimension form (the operational classic)
// and the conservative min-dist variant.
func BenchmarkAblationMAC(b *testing.B) {
	set, _ := points.Generate(points.Uniform, 8000, 1)
	exact := direct.SelfPotentials(set, 0)
	macs := []struct {
		name string
		m    mac.MAC
	}{
		{"radius", mac.Alpha{Alpha: 0.5}},
		{"box", mac.BoxAlpha{Alpha: 0.5}},
		{"mindist", mac.MinDist{Alpha: 0.5}},
	}
	for _, c := range macs {
		b.Run(c.name, func(b *testing.B) {
			e, err := core.New(set, core.Config{Degree: 4, Alpha: 0.5, MAC: c.m})
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
			b.ReportMetric(float64(st.Terms), "terms")
			b.ReportMetric(stats.RelErr2(phi, exact), "relerr")
		})
	}
}

// BenchmarkAblationLeafCap explores the leaf capacity (the paper notes
// 32-64 particle leaves are used in practice for cache performance).
func BenchmarkAblationLeafCap(b *testing.B) {
	set, _ := points.Generate(points.Uniform, 16000, 2)
	for _, cap := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("leaf=%d", cap), func(b *testing.B) {
			e, err := core.New(set, core.Config{Degree: 4, LeafCap: cap})
			if err != nil {
				b.Fatal(err)
			}
			var st *core.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st = e.Potentials()
			}
			b.StopTimer()
			b.ReportMetric(float64(st.Terms), "terms")
			b.ReportMetric(float64(st.PP), "pp")
		})
	}
}

// BenchmarkAblationChunkSize explores the aggregation factor w of the
// paper's parallel formulation.
func BenchmarkAblationChunkSize(b *testing.B) {
	set, _ := points.Generate(points.Uniform, 20000, 4)
	e, err := core.New(set, core.Config{Degree: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			var rep *parallel.Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err = parallel.Simulate(e, 32, w, parallel.CostModel{}, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Speedup, "speedup32")
			b.ReportMetric(rep.CommWords, "commwords")
		})
	}
}

// BenchmarkAblationRefQuantile explores the Theorem 3 reference-cluster
// choice: quantile 0 is the theorem's smallest-leaf reference (most
// accurate); quantile 1 promotes the fewest clusters (cheapest), landing
// near the paper's measured near-parity of term counts.
func BenchmarkAblationRefQuantile(b *testing.B) {
	set, _ := points.GenerateCharged(points.Uniform, 16000, 6, 16000, false)
	exact := direct.SelfPotentials(set, 0)
	for _, q := range []float64{0, 0.9, 1.0} {
		b.Run(fmt.Sprintf("q=%g", q), func(b *testing.B) {
			e, err := core.New(set, core.Config{Method: core.Adaptive, Degree: 4, RefQuantile: q})
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
			b.ReportMetric(float64(st.Terms), "terms")
			b.ReportMetric(stats.MeanAbsErr(phi, exact), "abserr")
		})
	}
}

// BenchmarkAblationDegreeGrowth quantifies the adaptive method's cost and
// error as alpha varies (alpha controls both acceptance distance and the
// Theorem 3 degree growth rate c = ln4/ln(1/alpha)).
func BenchmarkAblationDegreeGrowth(b *testing.B) {
	set, _ := points.GenerateCharged(points.Uniform, 8000, 5, 8000, false)
	exact := direct.SelfPotentials(set, 0)
	for _, alpha := range []float64{0.3, 0.5, 0.7} {
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			e, err := core.New(set, core.Config{Method: core.Adaptive, Degree: 4, Alpha: alpha})
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
			b.ReportMetric(float64(st.Terms), "terms")
			b.ReportMetric(float64(st.MaxDegree), "maxdegree")
			b.ReportMetric(stats.MeanAbsErr(phi, exact), "abserr")
		})
	}
}
