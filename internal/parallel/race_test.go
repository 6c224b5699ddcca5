package parallel

import (
	"sync"
	"testing"

	"treecode/internal/core"
	"treecode/internal/obs"
	"treecode/internal/points"
)

// TestSimulateRace runs the cost simulator and the wall-clock measurement
// concurrently against one shared evaluator (run with -race). Simulate
// only reads the evaluator, so concurrent reports must agree.
func TestSimulateRace(t *testing.T) {
	set, err := points.Generate(points.Uniform, 500, 17)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(set, core.Config{Method: core.Adaptive, Degree: 3, Alpha: 0.5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Simulate(e, 4, 2, Static, CostModel{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(4)
	for c := 0; c < 2; c++ {
		go func() {
			defer wg.Done()
			rep, err := Simulate(e, 4, 2, Static, CostModel{})
			if err != nil {
				t.Error(err)
				return
			}
			if rep.Speedup != ref.Speedup {
				t.Errorf("Speedup = %g differs from reference %g", rep.Speedup, ref.Speedup)
			}
		}()
		go func() {
			defer wg.Done()
			if d := MeasureTraced(e, 4, nil); d < 0 {
				t.Errorf("negative measured duration %v", d)
			}
		}()
	}
	wg.Wait()
}

// TestTracedSharedCollectorRace drives SimulateTraced and MeasureTraced from
// several goroutines into ONE collector while another goroutine repeatedly
// snapshots it (run with -race). The span data must survive intact: every
// simulate/measure call leaves exactly one finished root span.
func TestTracedSharedCollectorRace(t *testing.T) {
	set, err := points.Generate(points.Uniform, 400, 23)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(set, core.Config{Method: core.Original, Degree: 3, Alpha: 0.5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()

	const simRuns, measRuns = 3, 3
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = col.Spans()
				_ = col.RenderSpans()
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(simRuns + measRuns)
	for i := 0; i < simRuns; i++ {
		go func() {
			defer wg.Done()
			if _, err := SimulateTraced(e, 4, 16, Dynamic, CostModel{}, col); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < measRuns; i++ {
		go func() {
			defer wg.Done()
			if d := MeasureTraced(e, 2, col); d <= 0 {
				t.Errorf("MeasureTraced returned %v", d)
			}
		}()
	}
	wg.Wait()
	close(done)

	var sims, meas int
	for _, s := range col.Spans() {
		switch s.Name {
		case "parallel/simulate":
			sims++
			if s.Running {
				t.Error("simulate span left running")
			}
		case "parallel/measure":
			meas++
		}
	}
	if sims != simRuns || meas != measRuns {
		t.Fatalf("span census %d/%d, want %d/%d", sims, meas, simRuns, measRuns)
	}
}
