package parallel

import (
	"math"
	"testing"

	"treecode/internal/core"
	"treecode/internal/points"
)

func buildEval(t testing.TB, method core.Method, n int) *core.Evaluator {
	t.Helper()
	set, err := points.Generate(points.Uniform, n, 40)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(set, core.Config{Method: method, Degree: 4, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSimulateBasicShape(t *testing.T) {
	e := buildEval(t, core.Original, 8000)
	r1, err := Simulate(e, 1, 64, CostModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One processor: no communication, speedup slightly below 1 from chunk
	// overhead.
	if r1.CommWords != 0 {
		t.Errorf("1 proc should not communicate, got %v words", r1.CommWords)
	}
	if r1.Speedup > 1 || r1.Speedup < 0.8 {
		t.Errorf("1-proc speedup = %v", r1.Speedup)
	}

	r32, err := Simulate(e, 32, 64, CostModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r32.Speedup <= 10 || r32.Speedup > 32 {
		t.Errorf("32-proc speedup = %v, want high but sub-linear", r32.Speedup)
	}
	if r32.Efficiency <= 0.5 || r32.Efficiency > 1 {
		t.Errorf("32-proc efficiency = %v", r32.Efficiency)
	}
	if r32.CommWords <= 0 {
		t.Error("32 procs must communicate")
	}
	if len(r32.WorkPer) != 32 || len(r32.CommPer) != 32 {
		t.Error("per-proc slices wrong length")
	}
	// Work conservation: per-proc work sums to serial + overheads.
	var sum float64
	for _, w := range r32.WorkPer {
		sum += w
	}
	overhead := float64(r32.Chunks) * 50 // default ChunkOverhead
	if math.Abs(sum-(r32.SerialCost+overhead)) > 1e-6*sum {
		t.Errorf("work not conserved: %v vs %v", sum, r32.SerialCost+overhead)
	}
}

func TestSpeedupGrowsWithProcs(t *testing.T) {
	e := buildEval(t, core.Original, 8000)
	prev := 0.0
	for _, p := range []int{1, 2, 4, 8, 16} {
		r, err := Simulate(e, p, 64, CostModel{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Speedup <= prev {
			t.Fatalf("speedup not increasing at %d procs: %v <= %v", p, r.Speedup, prev)
		}
		prev = r.Speedup
	}
}

// The paper's observation: the adaptive method fetches longer multipole
// series, so its communication volume is higher and its speedup slightly
// lower than the original method's.
func TestAdaptiveCommunicatesMore(t *testing.T) {
	orig := buildEval(t, core.Original, 10000)
	adpt := buildEval(t, core.Adaptive, 10000)
	ro, err := Simulate(orig, 32, 64, CostModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Simulate(adpt, 32, 64, CostModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.CommWords <= ro.CommWords {
		t.Errorf("adaptive comm %v should exceed original %v", ra.CommWords, ro.CommWords)
	}
	t.Logf("speedups: original %.2f, adaptive %.2f; comm words: %v vs %v",
		ro.Speedup, ra.Speedup, ro.CommWords, ra.CommWords)
}

func TestSimulateErrors(t *testing.T) {
	e := buildEval(t, core.Original, 500)
	if _, err := Simulate(e, 0, 64, CostModel{}, nil); err == nil {
		t.Error("procs=0 should error")
	}
	// w defaulting.
	if r, err := Simulate(e, 2, 0, CostModel{}, nil); err != nil || r.Chunks <= 0 {
		t.Error("w=0 should default")
	}
}

func TestMeasureRuns(t *testing.T) {
	e := buildEval(t, core.Original, 2000)
	d1 := MeasureTraced(e, 1, nil)
	d2 := MeasureTraced(e, 2, nil)
	if d1 <= 0 || d2 <= 0 {
		t.Error("MeasureTraced returned non-positive duration")
	}
	// Workers config restored.
	if e.Cfg.Workers != 0 {
		t.Error("MeasureTraced must leave Workers alone")
	}
}

func TestCustomCostModel(t *testing.T) {
	e := buildEval(t, core.Original, 4000)
	// Expensive communication should depress speedup.
	cheap, err := Simulate(e, 16, 64, CostModel{WordCost: 0.01}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dear, err := Simulate(e, 16, 64, CostModel{WordCost: 50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dear.Speedup >= cheap.Speedup {
		t.Errorf("expensive communication should reduce speedup: %v vs %v",
			dear.Speedup, cheap.Speedup)
	}
	// Heavy chunk overhead should also depress speedup at small w.
	light, _ := Simulate(e, 16, 16, CostModel{ChunkOverhead: 1}, nil)
	heavy, _ := Simulate(e, 16, 16, CostModel{ChunkOverhead: 1e6}, nil)
	if heavy.Speedup >= light.Speedup {
		t.Errorf("chunk overhead should reduce speedup: %v vs %v",
			heavy.Speedup, light.Speedup)
	}
}

func TestDeterminism(t *testing.T) {
	e := buildEval(t, core.Adaptive, 3000)
	a, _ := Simulate(e, 8, 64, CostModel{}, nil)
	b, _ := Simulate(e, 8, 64, CostModel{}, nil)
	if a.Makespan != b.Makespan || a.CommWords != b.CommWords || a.Speedup != b.Speedup {
		t.Error("simulation not deterministic")
	}
}
