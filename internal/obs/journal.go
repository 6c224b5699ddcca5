package obs

import "time"

// Event kinds emitted by the evaluators and the collector itself. The
// journal answers "why did step 412 rebuild?" post-hoc: every structured
// record carries a timestamp, the sim step it happened in (when inside a
// StepBegin/StepEnd window), a kind, and a human-readable reason.
const (
	// EventRebuildFallback: a persistent-engine Update hit the drift
	// policy and fell back to a full reconstruction. Reason names the
	// threshold that fired; Value is the migrant count.
	EventRebuildFallback = "rebuild-fallback"
	// EventRootGrow: a persistent-engine Update found particles outside
	// the root cube and doubled the root to keep them instead of
	// rebuilding. Value is the count of such particles.
	EventRootGrow = "root-grow"
	// EventDegreeClamp: a degree-selection pass was limited by the
	// Legendre stability cap. Value is the clamp count of the pass.
	EventDegreeClamp = "degree-clamp"
	// EventRadiusInflation: a refit succeeded but the conservative-radius
	// inflation crossed the warning threshold — the drift policy is
	// approaching its fallback limit. Value is the inflation ratio.
	EventRadiusInflation = "radius-inflation"
	// EventPlanInvalidate: cached interaction-plan entries were lost — a
	// revalidation pass found drift exceeding stored slack (Value is the
	// invalidated entry count) or a full rebuild dropped the whole store
	// (Value is the dropped plan count). Reason distinguishes the cause.
	EventPlanInvalidate = "plan-invalidate"
	// EventRungPromote / EventRungDemote: block-timestep rung
	// reassignments in one macro step — promotions move particles to
	// shorter timesteps (higher rungs, applied immediately), demotions to
	// longer ones (applied only at aligned substep boundaries). Value is
	// the reassignment count of the step.
	EventRungPromote = "rung-promote"
	EventRungDemote  = "rung-demote"
)

// InflationWarnRatio is the radius-inflation ratio above which a
// successful refit journals an EventRadiusInflation warning (the hard
// fallback threshold defaults to 2).
const InflationWarnRatio = 1.5

// Event is one structured journal record.
type Event struct {
	TimeNS int64   `json:"t_ns"`            // offset from the collector epoch
	Step   int64   `json:"step"`            // sim step index, -1 outside a step window
	Kind   string  `json:"kind"`            // one of the Event* constants (or tool-defined)
	Reason string  `json:"reason"`          // human-readable cause
	Value  float64 `json:"value,omitempty"` // kind-specific magnitude
}

// journal is the bounded event ring. Like the step series, memory is
// O(DefaultRetention); evictions are counted, never silent.
type journal struct {
	events  []Event
	next    int
	dropped int64
	byKind  map[string]int64 // events ever journaled, per kind (survives eviction)
}

func (j *journal) add(e Event) {
	if j.byKind == nil {
		j.byKind = make(map[string]int64)
	}
	j.byKind[e.Kind]++
	if len(j.events) < DefaultRetention {
		j.events = append(j.events, e)
		return
	}
	j.events[j.next] = e
	j.next = (j.next + 1) % len(j.events)
	j.dropped++
}

// snapshot returns the retained events in chronological order.
func (j *journal) snapshot() []Event {
	if len(j.events) == 0 {
		return nil
	}
	out := make([]Event, 0, len(j.events))
	out = append(out, j.events[j.next:]...)
	out = append(out, j.events[:j.next]...)
	return out
}

// AddEvent journals one structured event, stamping the current time and
// the sim step of the surrounding StepBegin/StepEnd window (-1 outside
// one). Nil-safe.
func (c *Collector) AddEvent(kind, reason string, value float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.journal.add(Event{
		TimeNS: time.Since(c.epoch).Nanoseconds(),
		Step:   c.curStep,
		Kind:   kind,
		Reason: reason,
		Value:  value,
	})
	c.mu.Unlock()
}

// Events returns the retained journal in chronological order. Nil-safe.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journal.snapshot()
}

// EventCounts returns the number of events ever journaled per kind,
// including evicted ones. Nil-safe.
func (c *Collector) EventCounts() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.journal.byKind))
	for k, v := range c.journal.byKind {
		out[k] = v
	}
	return out
}
