package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStepSampleRingWraparound(t *testing.T) {
	const n = DefaultRetention + 6
	var sr series
	for i := 0; i < n; i++ {
		sr.append(StepSample{Step: int64(i), WallNS: int64(i + 1), RefitKind: "refit"})
	}
	got := sr.snapshot()
	if len(got) != DefaultRetention {
		t.Fatalf("retention %d kept %d samples", DefaultRetention, len(got))
	}
	for i, s := range got {
		if s.Step != int64(6+i) || s.WallNS != int64(7+i) {
			t.Fatalf("sample %d out of order: %+v", i, s)
		}
	}
	roll := sr.roll
	if roll.Steps != n || roll.Dropped != 6 {
		t.Fatalf("rollup steps/dropped wrong: %+v", roll)
	}
	if roll.Refits != n || roll.Builds != 0 || roll.Rebuilds != 0 {
		t.Fatalf("kind counts wrong: %+v", roll)
	}
	// Rollups cover evicted samples: wall sum is 1+..+n, max is n.
	if roll.Wall.Sum != n*(n+1)/2 || roll.Wall.Max != n {
		t.Fatalf("wall rollup wrong: %+v", roll.Wall)
	}
	if mean := roll.Wall.Mean(roll.Steps); mean != (n+1)/2.0 {
		t.Fatalf("wall mean wrong: %v", mean)
	}
}

func TestSeriesRollupKinds(t *testing.T) {
	var sr series
	for _, k := range []string{"build", "refit", "refit", "full", ""} {
		sr.append(StepSample{RefitKind: k})
	}
	roll := sr.roll
	// Unknown/empty kinds count as builds (fresh constructions).
	if roll.Builds != 2 || roll.Refits != 2 || roll.Rebuilds != 1 {
		t.Fatalf("kind counts wrong: %+v", roll)
	}
}

func TestStepBeginEndDerivesDeltas(t *testing.T) {
	c := New()
	// Pre-existing cumulative state that must NOT leak into the step deltas.
	pre := c.NewShard()
	pre.Accept(1, 4, 25, 0.5, 3e-3)
	pre.Merge()
	c.AddSteals(7)
	c.AddRefit(RefitMetrics{Updates: 1, Refits: 1, Migrants: 40, RadiusInflationMax: 1.01})

	mk := c.StepBegin()
	sh := c.NewShard()
	sh.Accept(2, 5, 36, 0.4, 2e-3)
	sh.Merge()
	c.AddSteals(3)
	c.AddRefit(RefitMetrics{Updates: 1, Refits: 1, Migrants: 5, RadiusInflationMax: 1.25})
	c.StepEnd(mk, StepInfo{RefitKind: "refit", EvalWall: 5 * time.Millisecond, BudgetReal: 1.5e-3, N: 100})

	got := c.StepSamples()
	if len(got) != 1 {
		t.Fatalf("want 1 sample, got %d", len(got))
	}
	s := got[0]
	if s.RefitKind != "refit" || s.EvalNS != int64(5*time.Millisecond) || s.BudgetReal != 1.5e-3 {
		t.Fatalf("StepInfo fields wrong: %+v", s)
	}
	if s.Migrants != 5 || s.MigrantFrac != 0.05 {
		t.Fatalf("migrant delta wrong: %+v", s)
	}
	if s.Steals != 3 {
		t.Fatalf("steal delta wrong: %+v", s)
	}
	if d := s.BudgetPred - 2e-3; d > 1e-18 || d < -1e-18 {
		t.Fatalf("predicted budget delta wrong: %v", s.BudgetPred)
	}
	if s.RadiusInflation != 1.25 {
		t.Fatalf("radius inflation not taken from this step's refit: %+v", s)
	}
	if s.WallNS <= 0 || s.Allocs < 0 {
		t.Fatalf("wall/alloc sample implausible: %+v", s)
	}

	// A step with no Update (pure build) must not report stale inflation.
	mk = c.StepBegin()
	c.StepEnd(mk, StepInfo{RefitKind: "build", N: 100})
	s = c.StepSamples()[1]
	if s.RadiusInflation != 0 {
		t.Fatalf("build step inherited stale inflation: %+v", s)
	}
}

func TestJournalRingAndCounts(t *testing.T) {
	const n = DefaultRetention + 2
	c := New()
	for i := 0; i < n; i++ {
		c.AddEvent(EventRebuildFallback, "migrant-fraction", float64(i))
	}
	c.AddEvent(EventDegreeClamp, "cap", 1)
	ev := c.Events()
	if len(ev) != DefaultRetention {
		t.Fatalf("retention %d kept %d events", DefaultRetention, len(ev))
	}
	if ev[0].Value != 3 || ev[1].Value != 4 || ev[len(ev)-1].Kind != EventDegreeClamp {
		t.Fatalf("eviction order wrong: first %+v %+v, last %+v", ev[0], ev[1], ev[len(ev)-1])
	}
	counts := c.EventCounts()
	if counts[EventRebuildFallback] != n || counts[EventDegreeClamp] != 1 {
		t.Fatalf("counts must survive eviction: %v", counts)
	}
	snap := c.Snapshot()
	if snap.Journal.Dropped != 3 || len(snap.Journal.Events) != DefaultRetention {
		t.Fatalf("journal snapshot wrong: dropped %d, %d events", snap.Journal.Dropped, len(snap.Journal.Events))
	}
}

func TestJournalStepStamp(t *testing.T) {
	c := New()
	c.AddEvent(EventDegreeClamp, "outside", 1)
	c.StepEnd(c.StepBegin(), StepInfo{}) // advance to step 1
	mk := c.StepBegin()
	c.AddEvent(EventRebuildFallback, "inside", 2)
	c.StepEnd(mk, StepInfo{RefitKind: "full", N: 10})
	c.AddEvent(EventDegreeClamp, "after", 3)
	ev := c.Events()
	if ev[0].Step != -1 || ev[1].Step != 1 || ev[2].Step != -1 {
		t.Fatalf("step stamps wrong: %+v", ev)
	}
}

func TestCollectorSelfJournals(t *testing.T) {
	c := New()
	c.AddDegreeClamps(4)
	c.AddRefit(RefitMetrics{Updates: 1, Refits: 1, RadiusInflationMax: 1.7})
	c.AddRefit(RefitMetrics{Updates: 1, Refits: 1, RadiusInflationMax: 1.2}) // below warn: no event
	counts := c.EventCounts()
	if counts[EventDegreeClamp] != 1 || counts[EventRadiusInflation] != 1 {
		t.Fatalf("self-journaled events wrong: %v", counts)
	}
	ev := c.Events()
	if ev[0].Value != 4 || ev[1].Value != 1.7 {
		t.Fatalf("event values wrong: %+v", ev)
	}
}

func TestNilCollectorSeriesInert(t *testing.T) {
	var c *Collector
	c.AddEvent(EventDegreeClamp, "x", 1)
	mk := c.StepBegin()
	if mk.valid {
		t.Fatal("nil collector handed out a live mark")
	}
	c.StepEnd(mk, StepInfo{RefitKind: "build"})
	if c.StepSamples() != nil || c.Events() != nil || c.EventCounts() != nil {
		t.Fatal("nil collector retained telemetry")
	}
	if roll := c.SeriesRollup(); roll != (SeriesRollup{}) {
		t.Fatalf("nil collector rollup non-zero: %+v", roll)
	}
	// A live collector must ignore a zero mark too (mixed nil/non-nil wiring).
	live := New()
	live.StepEnd(StepMark{}, StepInfo{RefitKind: "build"})
	if got := live.StepSamples(); got != nil {
		t.Fatalf("zero mark produced a sample: %+v", got)
	}
}

func TestRenderSpansDeepNesting(t *testing.T) {
	c := New()
	sp := c.Start("root")
	for d := 0; d < 24; d++ {
		sp = sp.Child("nested")
	}
	leaf := sp.Child("leaf")
	leaf.End()
	out := c.RenderSpans()
	if !strings.Contains(out, "leaf") {
		t.Fatalf("deep render lost the leaf:\n%s", out)
	}
	if strings.Contains(out, "%!") {
		t.Fatalf("deep render produced a formatting error:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if len(strings.Fields(line)) < 2 {
			t.Fatalf("render line lost its duration column: %q", line)
		}
	}
}

func TestStepSeriesConcurrentAccess(t *testing.T) {
	// Run past DefaultRetention so the sample ring and the journal both
	// evict while readers take snapshots.
	const steps = DefaultRetention + 200
	c := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: step windows with shard recording inside, plus journal events.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < steps; i++ {
			mk := c.StepBegin()
			sh := c.NewShard()
			sh.Accept(1, 4, 25, 0.5, 1e-3)
			sh.Merge()
			c.AddEvent(EventDegreeClamp, "race", float64(i))
			c.StepEnd(mk, StepInfo{RefitKind: "refit", N: 10})
		}
		close(stop)
	}()
	// Readers: snapshots concurrent with in-flight steps.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.StepSamples()
				_ = c.SeriesRollup()
				_ = c.Events()
				_ = c.Snapshot()
			}
		}()
	}
	wg.Wait()
	if roll := c.SeriesRollup(); roll.Steps != steps || roll.Refits != steps || roll.Dropped != steps-DefaultRetention {
		t.Fatalf("lost samples under concurrency: %+v", roll)
	}
	if got := len(c.StepSamples()); got != DefaultRetention {
		t.Fatalf("ring kept %d samples, want %d", got, DefaultRetention)
	}
	if snap := c.Snapshot(); snap.Journal.Dropped < steps-DefaultRetention || len(snap.Journal.Events) != DefaultRetention {
		t.Fatalf("journal did not evict: dropped %d, %d events", snap.Journal.Dropped, len(snap.Journal.Events))
	}
	if n := c.EventCounts()[EventDegreeClamp]; n != steps {
		t.Fatalf("event count %d, want %d", n, steps)
	}
}
