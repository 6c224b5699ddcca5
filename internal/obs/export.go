package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// SnapshotSchema versions the exported trace document. v1 was the
// unversioned PR 2 format (spans + metrics); v2 adds the schema tag, the
// per-step time series with rollups, and the event journal; v3 adds the
// block-timestep metrics section and the per-rung step-sample fields.
const SnapshotSchema = "treecode-obs/v3"

// LevelData is the exported per-level metric row (LevelMetrics plus its
// level index, so the JSON is self-describing).
type LevelData struct {
	Level int `json:"level"`
	LevelMetrics
}

// RatioData is the exported form of RatioStats with the mean materialized.
type RatioData struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	N    int64   `json:"n"`
}

// MetricsData is the exported form of Metrics.
type MetricsData struct {
	Levels       []LevelData      `json:"levels"`
	DegreeHist   map[string]int64 `json:"degree_hist"`
	OpenRatio    RatioData        `json:"open_ratio"`
	DegreeClamps int64            `json:"degree_clamps"`
	Accepts      int64            `json:"accepts"`
	Rejects      int64            `json:"rejects"`
	M2PTerms     int64            `json:"m2p_terms"`
	PPPairs      int64            `json:"pp_pairs"`
	BudgetTotal  float64          `json:"budget_total"`
	Batch        BatchMetrics     `json:"batch"`
	Refit        RefitMetrics     `json:"refit"`
	Plan         PlanMetrics      `json:"plan"`
	Block        BlockMetrics     `json:"block"`
}

// SeriesData is the exported per-step time series: the retained window,
// how many samples it holds vs ever saw, and the whole-run rollups.
type SeriesData struct {
	Retention int          `json:"retention"`
	Rollup    SeriesRollup `json:"rollup"`
	Samples   []StepSample `json:"samples,omitempty"`
}

// JournalData is the exported event journal.
type JournalData struct {
	Dropped int64            `json:"dropped"`
	Counts  map[string]int64 `json:"counts,omitempty"` // per kind, including evicted
	Events  []Event          `json:"events,omitempty"`
}

// Snapshot is the full exported state of a collector: the span forest, the
// merged metrics, the per-step time series, and the event journal.
type Snapshot struct {
	Schema  string      `json:"schema"`
	Spans   []SpanData  `json:"spans"`
	Metrics MetricsData `json:"metrics"`
	Series  SeriesData  `json:"series"`
	Journal JournalData `json:"journal"`
}

// Snapshot exports the collector state. Nil-safe: a nil collector yields
// an empty snapshot.
func (c *Collector) Snapshot() Snapshot {
	m := c.Metrics()
	md := MetricsData{
		DegreeHist:   map[string]int64{},
		DegreeClamps: m.DegreeClamps,
		Accepts:      m.Accepts(),
		Rejects:      m.Rejects(),
		M2PTerms:     m.M2PTerms(),
		PPPairs:      m.PPPairs(),
		BudgetTotal:  m.BudgetTotal(),
	}
	ratio := RatioData{Min: m.OpenRatio.Min, Max: m.OpenRatio.Max, N: m.OpenRatio.N}
	if m.OpenRatio.N > 0 {
		ratio.Mean = m.OpenRatio.Mean()
	}
	md.OpenRatio = ratio
	md.Batch = m.Batch
	md.Refit = m.Refit
	md.Plan = m.Plan
	md.Block = m.Block
	for l, lm := range m.Levels {
		if lm == (LevelMetrics{}) {
			continue
		}
		md.Levels = append(md.Levels, LevelData{Level: l, LevelMetrics: lm})
	}
	for p, n := range m.DegreeHist {
		if n != 0 {
			md.DegreeHist[fmt.Sprintf("%d", p)] = n
		}
	}
	snap := Snapshot{
		Schema:  SnapshotSchema,
		Spans:   c.Spans(),
		Metrics: md,
		Series: SeriesData{
			Retention: DefaultRetention,
			Rollup:    c.SeriesRollup(),
			Samples:   c.StepSamples(),
		},
		Journal: JournalData{
			Counts: c.EventCounts(),
			Events: c.Events(),
		},
	}
	if c != nil {
		c.mu.Lock()
		snap.Journal.Dropped = c.journal.dropped
		c.mu.Unlock()
	}
	return snap
}

// WriteJSON writes the collector snapshot as indented JSON to path ("" or
// "-" means stdout), buffering writes and surfacing close/flush errors
// (deliberately self-contained so command-line helpers may depend on obs
// without a cycle). Nil-safe: a nil collector writes an empty snapshot.
func WriteJSON(c *Collector, path string) (err error) {
	var (
		f    *os.File
		name = "stdout"
	)
	if path == "" || path == "-" {
		f = os.Stdout
	} else {
		f, err = os.Create(path)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		name = path
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("obs: writing %s: %w", name, err)
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c.Snapshot()); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if f != os.Stdout {
		return f.Close()
	}
	return nil
}
