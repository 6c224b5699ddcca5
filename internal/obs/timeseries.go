package obs

import (
	"runtime"
	"time"
)

// DefaultRetention is the number of StepSamples the collector's ring buffer
// keeps, and the number of events its journal keeps. Rollups cover every
// sample ever appended, so eviction loses per-step detail but never the
// aggregates.
const DefaultRetention = 1024

// StepSample is one per-timestep telemetry record of a longitudinal run:
// what the persistent engine did this step (refit kind, migrants, radius
// inflation), what the evaluation cost (wall time, steals, allocations),
// and how the Theorem 2 error budget evolved. The sim layer appends one
// per Step via StepBegin/StepEnd.
type StepSample struct {
	Step    int64 `json:"step"`     // 0-based step index
	StartNS int64 `json:"start_ns"` // step start, offset from the collector epoch
	WallNS  int64 `json:"wall_ns"`  // whole-step wall time
	EvalNS  int64 `json:"eval_ns"`  // force-evaluation share (closing kick)

	// RefitKind is what the evaluator lifecycle did for this step's force
	// evaluation: "build" (fresh construction), "refit" (in-place
	// maintenance), or "full" (drift-policy fallback rebuild).
	RefitKind string `json:"refit_kind"`

	Migrants    int64   `json:"migrants"`     // particles re-bucketed this step
	MigrantFrac float64 `json:"migrant_frac"` // migrants over particle count
	// RadiusInflation is the largest conservative-radius inflation ratio
	// the step's refit observed (1 when nothing inflated, 0 for fresh
	// builds, which re-measure radii exactly).
	RadiusInflation float64 `json:"radius_inflation"`

	// BudgetPred is the Theorem 2 a-priori budget recorded by the MAC
	// census during this step's evaluations: sum of A*alpha^(p+1)/(r(1-alpha))
	// over accepted interactions. BudgetReal is the realized per-interaction
	// bound sum (multipole BoundAt at the actual targets) from the same
	// evaluation — the "measured" side of predicted-vs-realized.
	BudgetPred float64 `json:"budget_pred"`
	BudgetReal float64 `json:"budget_real"`

	Steals int64 `json:"steals"` // work-stealing scheduler steals this step
	Allocs int64 `json:"allocs"` // heap allocations (runtime mallocs) this step

	// Interaction-plan cache activity of this step's evaluations:
	// entries served from cache vs re-derived by traversal, the resulting
	// reuse fraction (0 when no batched evaluation ran), and the traversal
	// time spent building or repairing plans.
	PlanReused    int64   `json:"plan_reused"`
	PlanRebuilt   int64   `json:"plan_rebuilt"`
	PlanReuse     float64 `json:"plan_reuse"`
	PlanCollectNS int64   `json:"plan_collect_ns"`

	// Block-timestep telemetry (a one-rung, global-dt step records one
	// substep, N force evaluations and occupancy [N]). Substeps is how
	// many active-subset force evaluations the macro step ran, ForceEvals
	// the per-particle force evaluations they paid in total (a global-dt
	// run at the finest rung would pay N*Substeps), and RungOccupancy the
	// particles-per-rung histogram at step end.
	// RungBudgetPred/Real split the step's predicted and realized
	// Theorem 2 budget across rungs, attributing each substep's share
	// proportionally to its per-rung active counts; Staleness accumulates
	// the mixed-age source measure sum |q_j|*|v_j|*age_j over frozen
	// sources at each evaluation — the drift-dependent term the extended
	// per-rung budget adds to Theorem 2. Promotions/Demotions count rung
	// reassignments toward shorter/longer timesteps.
	Substeps       int64     `json:"substeps,omitempty"`
	ForceEvals     int64     `json:"force_evals,omitempty"`
	RungOccupancy  []int64   `json:"rung_occupancy,omitempty"`
	RungBudgetPred []float64 `json:"rung_budget_pred,omitempty"`
	RungBudgetReal []float64 `json:"rung_budget_real,omitempty"`
	Promotions     int64     `json:"promotions,omitempty"`
	Demotions      int64     `json:"demotions,omitempty"`
	Staleness      float64   `json:"staleness,omitempty"`
}

// MeanMax is a running sum/max aggregate over one StepSample field. The
// mean is Sum over the rollup's step count, so aggregates stay exact no
// matter how many samples the ring evicted.
type MeanMax struct {
	Sum float64 `json:"sum"`
	Max float64 `json:"max"`
}

func (a *MeanMax) add(v float64) {
	a.Sum += v
	if v > a.Max {
		a.Max = v
	}
}

// Mean returns Sum/n, or 0 when n is 0.
func (a MeanMax) Mean(n int64) float64 {
	if n == 0 {
		return 0
	}
	return a.Sum / float64(n)
}

// SeriesRollup aggregates every StepSample ever appended — including the
// ones the bounded ring has evicted — so trend summaries are O(1) memory.
type SeriesRollup struct {
	Steps   int64 `json:"steps"`   // samples ever appended
	Dropped int64 `json:"dropped"` // samples evicted from the ring

	Builds   int64 `json:"builds"`   // steps whose refit kind was "build"
	Refits   int64 `json:"refits"`   // steps whose refit kind was "refit"
	Rebuilds int64 `json:"rebuilds"` // steps whose refit kind was "full"

	Wall            MeanMax `json:"wall_ns"`
	Eval            MeanMax `json:"eval_ns"`
	Migrants        MeanMax `json:"migrants"`
	MigrantFrac     MeanMax `json:"migrant_frac"`
	RadiusInflation MeanMax `json:"radius_inflation"`
	BudgetPred      MeanMax `json:"budget_pred"`
	BudgetReal      MeanMax `json:"budget_real"`
	Steals          MeanMax `json:"steals"`
	Allocs          MeanMax `json:"allocs"`
	PlanReuse       MeanMax `json:"plan_reuse"`
	PlanCollect     MeanMax `json:"plan_collect_ns"`
	ForceEvals      MeanMax `json:"force_evals"`
	Staleness       MeanMax `json:"staleness"`
}

func (r *SeriesRollup) add(s *StepSample) {
	r.Steps++
	switch s.RefitKind {
	case "refit":
		r.Refits++
	case "full":
		r.Rebuilds++
	default:
		r.Builds++
	}
	r.Wall.add(float64(s.WallNS))
	r.Eval.add(float64(s.EvalNS))
	r.Migrants.add(float64(s.Migrants))
	r.MigrantFrac.add(s.MigrantFrac)
	r.RadiusInflation.add(s.RadiusInflation)
	r.BudgetPred.add(s.BudgetPred)
	r.BudgetReal.add(s.BudgetReal)
	r.Steals.add(float64(s.Steals))
	r.Allocs.add(float64(s.Allocs))
	r.PlanReuse.add(s.PlanReuse)
	r.PlanCollect.add(float64(s.PlanCollectNS))
	r.ForceEvals.add(float64(s.ForceEvals))
	r.Staleness.add(s.Staleness)
}

// series is the bounded per-step ring buffer plus its whole-run rollup.
// Memory is O(retention), not O(steps): once full, the oldest sample is
// overwritten and counted in rollup.Dropped.
type series struct {
	buf  []StepSample
	next int // write index into buf
	roll SeriesRollup
}

func (s *series) append(sm StepSample) {
	s.roll.add(&sm)
	if s.buf == nil {
		s.buf = make([]StepSample, 0, DefaultRetention)
	}
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, sm)
		return
	}
	s.buf[s.next] = sm
	s.next = (s.next + 1) % len(s.buf)
	s.roll.Dropped++
}

// snapshot returns the retained samples in chronological order.
func (s *series) snapshot() []StepSample {
	if len(s.buf) == 0 {
		return nil
	}
	out := make([]StepSample, 0, len(s.buf))
	if len(s.buf) == cap(s.buf) {
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	} else {
		out = append(out, s.buf...)
	}
	return out
}

// StepSamples returns the retained per-step samples in chronological
// order. Nil-safe: a nil collector returns nil.
func (c *Collector) StepSamples() []StepSample {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.series.snapshot()
}

// SeriesRollup returns the whole-run per-step aggregates (covering evicted
// samples too). Nil-safe.
func (c *Collector) SeriesRollup() SeriesRollup {
	if c == nil {
		return SeriesRollup{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.series.roll
}

// StepMark captures the cumulative-counter state at the start of one sim
// step, so StepEnd can attribute deltas to the step. The zero value (from
// a nil collector) makes StepEnd a no-op. It is a plain value — taking a
// mark allocates nothing.
type StepMark struct {
	valid       bool
	start       time.Time
	mallocs     uint64
	budget      float64
	steals      int64
	migrant     int64
	updates     int64
	planReused  int64
	planRebuilt int64
	planCollect int64
}

// StepBegin opens a per-step measurement window: it snapshots the
// cumulative budget/steal/refit counters and the runtime allocation count.
// Nil-safe: a nil collector returns an inert mark. The runtime.ReadMemStats
// call is the most expensive part (~microseconds); it only runs when the
// collector is enabled, so disabled runs pay nothing.
func (c *Collector) StepBegin() StepMark {
	if c == nil {
		return StepMark{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mu.Lock()
	mk := StepMark{
		valid:       true,
		start:       time.Now(),
		mallocs:     ms.Mallocs,
		budget:      c.metrics.BudgetTotal(),
		steals:      c.metrics.Batch.Steals,
		migrant:     c.metrics.Refit.Migrants,
		updates:     c.metrics.Refit.Updates,
		planReused:  c.metrics.Plan.EntriesReused,
		planRebuilt: c.metrics.Plan.EntriesRebuilt,
		planCollect: c.metrics.Plan.CollectNS,
	}
	c.curStep = c.series.roll.Steps
	c.mu.Unlock()
	return mk
}

// StepInfo carries the per-step facts the collector cannot derive from its
// own counters: what the evaluator lifecycle did, the evaluation wall time
// and realized bound sum of the step's force evaluation, and the particle
// count (for the migrant fraction).
type StepInfo struct {
	RefitKind  string        // "build", "refit", or "full"
	EvalWall   time.Duration // force-evaluation share of the step
	BudgetReal float64       // realized per-interaction bound sum (Stats.BoundSum)
	N          int           // particle count

	// Block-timestep facts, copied verbatim into the sample — see the
	// StepSample field docs.
	Substeps       int64
	ForceEvals     int64
	RungOccupancy  []int64
	RungBudgetPred []float64
	RungBudgetReal []float64
	Promotions     int64
	Demotions      int64
	Staleness      float64
}

// StepEnd closes the window opened by StepBegin and appends one StepSample:
// counter deltas (predicted budget, steals, migrants) plus the explicit
// StepInfo facts and the step's allocation count. Nil-safe, and a no-op for
// the zero StepMark.
func (c *Collector) StepEnd(mk StepMark, info StepInfo) {
	if c == nil || !mk.valid {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mu.Lock()
	s := StepSample{
		Step:       c.series.roll.Steps,
		StartNS:    mk.start.Sub(c.epoch).Nanoseconds(),
		WallNS:     time.Since(mk.start).Nanoseconds(),
		EvalNS:     info.EvalWall.Nanoseconds(),
		RefitKind:  info.RefitKind,
		Migrants:   c.metrics.Refit.Migrants - mk.migrant,
		BudgetPred: c.metrics.BudgetTotal() - mk.budget,
		BudgetReal: info.BudgetReal,
		Steals:     c.metrics.Batch.Steals - mk.steals,
		Allocs:     int64(ms.Mallocs - mk.mallocs),
	}
	s.Substeps = info.Substeps
	s.ForceEvals = info.ForceEvals
	s.RungOccupancy = info.RungOccupancy
	s.RungBudgetPred = info.RungBudgetPred
	s.RungBudgetReal = info.RungBudgetReal
	s.Promotions = info.Promotions
	s.Demotions = info.Demotions
	s.Staleness = info.Staleness
	s.PlanReused = c.metrics.Plan.EntriesReused - mk.planReused
	s.PlanRebuilt = c.metrics.Plan.EntriesRebuilt - mk.planRebuilt
	s.PlanCollectNS = c.metrics.Plan.CollectNS - mk.planCollect
	if tot := s.PlanReused + s.PlanRebuilt; tot > 0 {
		s.PlanReuse = float64(s.PlanReused) / float64(tot)
	}
	if info.N > 0 {
		s.MigrantFrac = float64(s.Migrants) / float64(info.N)
	}
	if c.metrics.Refit.Updates > mk.updates {
		s.RadiusInflation = c.lastRefit.RadiusInflationMax
	}
	c.series.append(s)
	c.curStep = -1
	c.mu.Unlock()
}
