// Package obs is the treecode's observability layer: phase spans, sharded
// interaction metrics, and error-budget counters, collected behind the
// evaluators and surfaced by the command-line drivers.
//
// The design follows two rules the hot paths demand:
//
//  1. Disabled means free. Every entry point is nil-safe: a nil *Collector
//     hands out nil spans and nil shards, and all recording methods are
//     no-ops on nil receivers. The evaluators guard their recording with a
//     single nil check, so an un-instrumented run pays one predictable
//     branch per interaction and nothing else.
//
//  2. Hot-path recording never contends. Workers record interaction
//     metrics into private Shards (plain counters, no atomics, no locks)
//     and fold them into the Collector once, when the worker finishes.
//     Spans are coarse — one per phase or per worker, not per interaction —
//     so they may share the collector's mutex.
//
// The Collector aggregates three kinds of telemetry:
//
//   - Spans: nested begin/end timings of the evaluator phases (tree build,
//     degree selection, expansion build, evaluation) and per-worker
//     evaluation slices, rendered as a human-readable tree or exported as
//     a JSON trace.
//
//   - Metrics: per-tree-level MAC accept/reject counters, the multipole
//     degree histogram, M2P term and P2P pair counts, min/mean/max opening
//     ratio a/r of accepted interactions, the per-level Theorem 2
//     predicted error budget, and the degree-overflow clamp count.
//
//   - Time series: one StepSample per sim step (refit kind, migrants,
//     radius inflation, predicted vs realized Theorem 2 budget, wall
//     times, steals, allocations) in a bounded ring buffer with
//     whole-run mean/max rollups, plus a structured event journal
//     (rebuild fallbacks, degree clamps, drift warnings) — memory is
//     O(retention), not O(steps).
//
//   - Snapshots: a JSON document of everything above, written to a file
//     (-obsjson in every driver, wired by cliio.ObsFlagVars) and rendered
//     by cmd/obsreport.
package obs

import (
	"sync"
	"time"
)

// Collector is the root of one run's telemetry. The zero value is not
// usable; construct with New. A nil *Collector is the disabled state: all
// methods are safe to call and do nothing.
type Collector struct {
	mu      sync.Mutex
	epoch   time.Time
	roots   []*Span
	metrics Metrics

	// Longitudinal telemetry: the bounded per-step time series and the
	// structured event journal (both O(retention) memory), the most
	// recent per-Update refit record (feeding per-step radius-inflation
	// attribution), and the step index of the open StepBegin/StepEnd
	// window (-1 outside one) stamped onto journal events.
	series    series
	journal   journal
	lastRefit RefitMetrics
	curStep   int64
}

// New returns an empty enabled collector whose span clock starts now.
func New() *Collector {
	return &Collector{epoch: time.Now(), curStep: -1}
}

// Enabled reports whether the collector records anything (i.e. is non-nil).
func (c *Collector) Enabled() bool { return c != nil }

// AddDegreeClamps adds n degree-overflow clamp events (selections limited
// by the Legendre stability cap) to the metrics, journaling one
// EventDegreeClamp so the loss of accuracy is attributable to a step.
// Nil-safe.
func (c *Collector) AddDegreeClamps(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.mu.Lock()
	c.metrics.DegreeClamps += n
	c.journal.add(Event{
		TimeNS: time.Since(c.epoch).Nanoseconds(),
		Step:   c.curStep,
		Kind:   EventDegreeClamp,
		Reason: "degree selections limited by the Legendre stability cap",
		Value:  float64(n),
	})
	c.mu.Unlock()
}

// AddSteals adds n work-stealing scheduler steal events to the batch
// metrics. Recorded once per evaluation from the scheduler's run stats
// (steals are a property of the whole pool, not of one worker). Nil-safe.
func (c *Collector) AddSteals(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.mu.Lock()
	c.metrics.Batch.Steals += n
	c.mu.Unlock()
}

// AddRefit folds one persistent-engine Update outcome into the refit
// metrics. Recorded once per Update from the evaluator — coarse, like
// AddSteals — so it may share the collector's mutex. Nil-safe.
func (c *Collector) AddRefit(r RefitMetrics) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.metrics.Refit.add(&r)
	c.lastRefit = r
	if r.Refits > 0 && r.RadiusInflationMax > InflationWarnRatio {
		c.journal.add(Event{
			TimeNS: time.Since(c.epoch).Nanoseconds(),
			Step:   c.curStep,
			Kind:   EventRadiusInflation,
			Reason: "conservative-radius inflation approaching the drift-policy fallback threshold",
			Value:  r.RadiusInflationMax,
		})
	}
	c.mu.Unlock()
}

// AddBlock folds one macro block-timestep's counters into the block
// metrics — recorded once per sim step, like AddRefit — and journals the
// step's rung promotions and demotions as coalesced events so transitions
// are attributable to a step without one record per particle. Nil-safe.
func (c *Collector) AddBlock(b BlockMetrics) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.metrics.Block.add(&b)
	if b.Promotions > 0 {
		c.journal.add(Event{
			TimeNS: time.Since(c.epoch).Nanoseconds(),
			Step:   c.curStep,
			Kind:   EventRungPromote,
			Reason: "particles moved to shorter-timestep rungs",
			Value:  float64(b.Promotions),
		})
	}
	if b.Demotions > 0 {
		c.journal.add(Event{
			TimeNS: time.Since(c.epoch).Nanoseconds(),
			Step:   c.curStep,
			Kind:   EventRungDemote,
			Reason: "particles moved to longer-timestep rungs at aligned boundaries",
			Value:  float64(b.Demotions),
		})
	}
	c.mu.Unlock()
}

// AddPlanRevalidate folds one plan-revalidation pass into the plan
// metrics: checked entries examined, invalidated entries whose drift
// exceeded their stored slack (journaled as an EventPlanInvalidate when
// non-zero, so lost reuse is attributable to a step). Recorded once per
// Evaluator.Update, like AddRefit. Nil-safe.
func (c *Collector) AddPlanRevalidate(checked, invalidated int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.metrics.Plan.Checked += checked
	c.metrics.Plan.Invalidated += invalidated
	if invalidated > 0 {
		c.journal.add(Event{
			TimeNS: time.Since(c.epoch).Nanoseconds(),
			Step:   c.curStep,
			Kind:   EventPlanInvalidate,
			Reason: "geometry drift exceeded cached plan slack",
			Value:  float64(invalidated),
		})
	}
	c.mu.Unlock()
}

// AddPlanDrop records one whole-store plan drop (a full tree rebuild
// discarding plans leaf plans, or a root growth emptying them for
// re-collection), journaling an EventPlanInvalidate with the given reason.
// Nil-safe.
func (c *Collector) AddPlanDrop(reason string, plans int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.metrics.Plan.Drops++
	c.journal.add(Event{
		TimeNS: time.Since(c.epoch).Nanoseconds(),
		Step:   c.curStep,
		Kind:   EventPlanInvalidate,
		Reason: reason,
		Value:  float64(plans),
	})
	c.mu.Unlock()
}

// Metrics returns a deep copy of the merged interaction metrics. Nil-safe:
// a nil collector yields the zero Metrics.
func (c *Collector) Metrics() Metrics {
	if c == nil {
		return Metrics{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics.clone()
}
