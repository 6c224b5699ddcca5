package parallel

import (
	"math"
	"testing"

	"treecode/internal/core"
	"treecode/internal/obs"
)

// TestReportScheduleInvariants checks the costzones placement bookkeeping:
// every chunk lands on exactly one processor, so the per-processor costs
// must sum to the serial cost plus one overhead per chunk, and every
// processor index stays in range.
func TestReportScheduleInvariants(t *testing.T) {
	e := buildEval(t, core.Adaptive, 5000)
	model := CostModel{ChunkOverhead: 7}
	rep, err := Simulate(e, 11, 48, model, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (5000 + 47) / 48; rep.Chunks != want {
		t.Errorf("chunks = %d, want %d", rep.Chunks, want)
	}
	if len(rep.WorkPer) != 11 || len(rep.CommPer) != 11 {
		t.Fatalf("per-proc slices sized %d/%d, want 11", len(rep.WorkPer), len(rep.CommPer))
	}
	var sum float64
	for p, w := range rep.WorkPer {
		if w < 0 || rep.CommPer[p] < 0 {
			t.Errorf("negative cost on proc %d", p)
		}
		sum += w
	}
	want := rep.SerialCost + float64(rep.Chunks)*model.ChunkOverhead
	if math.Abs(sum-want) > 1e-9*want {
		t.Errorf("chunk placement lost work: per-proc sum %v, want %v", sum, want)
	}
	// Makespan is the maximum per-processor total, never below it.
	var maxT float64
	for p := range rep.WorkPer {
		if tot := rep.WorkPer[p] + rep.CommPer[p]; tot > maxT {
			maxT = tot
		}
	}
	if rep.Makespan != maxT {
		t.Errorf("makespan %v != max per-proc total %v", rep.Makespan, maxT)
	}
}

// TestSimulateTracedSpans verifies the collector receives the simulate span
// with its three pass children, and MeasureTraced records its span.
func TestSimulateTracedSpans(t *testing.T) {
	e := buildEval(t, core.Original, 2000)
	col := obs.New()
	if _, err := Simulate(e, 4, 64, CostModel{}, col); err != nil {
		t.Fatal(err)
	}
	if d := MeasureTraced(e, 2, col); d <= 0 {
		t.Fatalf("MeasureTraced returned %v", d)
	}
	spans := col.Spans()
	var sim, meas bool
	for _, s := range spans {
		switch s.Name {
		case "parallel/simulate":
			sim = true
			if len(s.Children) != 3 {
				t.Fatalf("simulate span has %d children, want 3: %+v", len(s.Children), s.Children)
			}
			for i, name := range []string{"profile", "place", "tally"} {
				if s.Children[i].Name != name {
					t.Errorf("simulate child %d = %q, want %q", i, s.Children[i].Name, name)
				}
			}
			if s.Running {
				t.Error("simulate span still marked running")
			}
		case "parallel/measure":
			meas = true
			if s.DurNS <= 0 {
				t.Error("measure span has no duration")
			}
		}
	}
	if !sim || !meas {
		t.Fatalf("missing spans: simulate=%v measure=%v", sim, meas)
	}
}
