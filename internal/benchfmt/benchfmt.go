// Package benchfmt defines the benchmark-trajectory document written by
// cmd/benchjson (BENCH_treecode.json at the repo root) and read back by
// cmd/obsreport. The types live in their own package so producers and
// consumers share one schema; bump Schema whenever a field changes shape
// or meaning.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"treecode/internal/obs"
)

// Schema tags the current document format. v3 added the steps section; v4
// embeds the per-step obs time series (samples, rollup) and event journal
// in each steps entry; v5 adds the mandatory per-steps-entry Plan section
// (interaction-plan cache reuse and traversal savings); v6 adds the
// optional per-steps-entry Block section (hierarchical block-timestep rung
// occupancy, force-eval savings, and the extended per-rung error
// accounting) — optional because global-dt cells have no rung structure.
const Schema = "treecode-bench/v6"

// Result is one (distribution, n, workers, eval mode) evaluation cell.
type Result struct {
	Dist      string  `json:"dist"`
	N         int     `json:"n"`
	Mode      string  `json:"mode"`
	Workers   int     `json:"workers"`
	BuildMS   float64 `json:"build_ms"`
	EvalMS    float64 `json:"eval_ms"` // best of -reps
	Terms     int64   `json:"terms"`
	PC        int64   `json:"pc"`
	PP        int64   `json:"pp"`
	MaxDegree int     `json:"max_degree"`
	BoundSum  float64 `json:"bound_sum"`
	// RelErrDirect is the relative 2-norm error against direct summation,
	// present only when n <= -maxdirect.
	RelErrDirect *float64 `json:"rel_err_direct,omitempty"`
}

// Pair derives the batched-over-walk comparison of one (dist, n, workers)
// cell.
type Pair struct {
	Dist       string  `json:"dist"`
	N          int     `json:"n"`
	Workers    int     `json:"workers"`
	Speedup    float64 `json:"speedup_batched_over_walk"`
	RelDrift   float64 `json:"rel_drift_batched_vs_walk"`
	WalkMS     float64 `json:"walk_eval_ms"`
	BatchedMS  float64 `json:"batched_eval_ms"`
	BoundRatio float64 `json:"bound_sum_ratio"` // batched/walk; 1 up to roundoff
}

// BuildResult records the construction-pipeline phase timings of one
// (dist, n, tree, workers) cell: the obs spans of core.New (tree build,
// degree selection, upward pass) plus one identity SetCharges (the
// per-GMRES-iteration recharge cost). Best of -reps runs by total.
type BuildResult struct {
	Dist             string  `json:"dist"`
	N                int     `json:"n"`
	Tree             string  `json:"tree"` // construction: "recursive"
	Workers          int     `json:"workers"`
	TreeMS           float64 `json:"tree_ms"`
	DegreesMS        float64 `json:"degrees_ms"`
	UpwardMS         float64 `json:"upward_ms"`
	RechargeMS       float64 `json:"recharge_ms"`
	RechargeStatsMS  float64 `json:"recharge_stats_ms"`
	RechargeUpwardMS float64 `json:"recharge_upward_ms"`
	TotalMS          float64 `json:"total_ms"` // tree + degrees + upward
}

// StepResult records one rebuild policy's cost over a leapfrog run: total
// wall clock, split into the tree-construction share (sort + degree
// selection under every; incremental maintenance under auto) and the
// moment share (the upward pass — paid in full by both policies, since
// every particle moves every step), plus the persistent engine's
// maintenance counters and, since v4, the run's per-step obs time series
// and event journal.
type StepResult struct {
	Dist               string  `json:"dist"`
	N                  int     `json:"n"`
	Workers            int     `json:"workers"`
	Steps              int     `json:"steps"`
	Dt                 float64 `json:"dt"`
	Policy             string  `json:"policy"` // auto or every
	ConstructMS        float64 `json:"construct_ms"`
	MomentsMS          float64 `json:"moments_ms"`
	TotalMS            float64 `json:"total_ms"`
	Builds             int     `json:"builds"` // core/build span count
	Refits             int64   `json:"refits"`
	Rebuilds           int64   `json:"rebuilds"`
	Migrants           int64   `json:"migrants"`
	Splits             int64   `json:"splits"`
	Merges             int64   `json:"merges"`
	RadiusInflationMax float64 `json:"radius_inflation_max"`

	// Samples is the run's per-step obs time series (one entry per
	// leapfrog step), Rollup its whole-run aggregates, and Journal the
	// structured events (rebuild fallbacks, degree clamps, drift
	// warnings) the run emitted.
	Samples []obs.StepSample `json:"samples,omitempty"`
	Rollup  obs.SeriesRollup `json:"rollup"`
	Journal []obs.Event      `json:"journal,omitempty"`

	// Plan summarizes the run's interaction-plan cache activity (v5).
	// Mandatory in v5 documents: ReadDoc rejects a v5 steps entry without
	// it, so a producer that silently stopped recording plan counters
	// fails the read instead of rendering empty cells.
	Plan *StepPlan `json:"plan,omitempty"`

	// Block summarizes a hierarchical block-timestep run (v6). Present
	// only on cells stepped with Policy "block"; global-dt cells have no
	// rung structure and omit it.
	Block *StepBlock `json:"block,omitempty"`
}

// StepBlock is the per-steps-entry summary of a hierarchical block-
// timestep run (schema v6): how the rung hierarchy was populated, the
// force-evaluation savings against a global-dt run on the finest occupied
// grid, and the realized accuracy of the mixed-age evaluation.
type StepBlock struct {
	Rungs      int     `json:"rungs"`       // configured MaxRungs
	Eta        float64 `json:"eta"`         // timestep-criterion prefactor
	MacroSteps int     `json:"macro_steps"` // macro Step calls in the run
	// Substeps counts non-empty substeps (>=1 particle due) over the run;
	// ForceEvals the per-particle force evaluations actually paid;
	// GlobalEvals = N x Substeps, what a global-dt run resolving the same
	// finest occupied grid would pay; EvalReduction their ratio.
	Substeps      int64   `json:"substeps"`
	ForceEvals    int64   `json:"force_evals"`
	GlobalEvals   int64   `json:"global_evals"`
	EvalReduction float64 `json:"eval_reduction"`
	// Occupancy is the final per-rung particle histogram; Promotions and
	// Demotions count rung transitions over the run; Staleness is the
	// accumulated mixed-age proxy (mass-weighted source-position
	// misalignment summed over evaluations).
	Occupancy  []int64 `json:"occupancy"`
	Promotions int64   `json:"promotions"`
	Demotions  int64   `json:"demotions"`
	Staleness  float64 `json:"staleness"`
	// PhiDrift is the relative 2-norm gap between the block engine's
	// potentials at the final (macro-synchronized) positions and a fresh
	// build there; PhiBudget the corresponding Theorem 2 budget. Drift
	// within budget extends the refit correctness criterion to mixed-age
	// stepping. TrajDrift is the RMS position gap against a global-dt run
	// at the finest configured timestep, over the RMS position magnitude.
	PhiDrift  float64 `json:"phi_drift"`
	PhiBudget float64 `json:"phi_budget"`
	TrajDrift float64 `json:"traj_drift"`
}

// StepPlan is the per-steps-entry summary of the persistent interaction-
// plan cache (schema v5): entry reuse over the whole run, revalidation
// losses, and how much traversal time the cache saved relative to
// re-collecting every plan from scratch each step.
type StepPlan struct {
	EntriesReused  int64   `json:"entries_reused"`
	EntriesRebuilt int64   `json:"entries_rebuilt"`
	ReuseFrac      float64 `json:"reuse_frac"` // reused/(reused+rebuilt); 0 when no batched eval ran
	Invalidated    int64   `json:"invalidated"`
	Drops          int64   `json:"drops"` // whole-store drops (full rebuilds)
	// TraversalNS is the plan-maintenance time actually spent: collect
	// time building and repairing plans during evaluation plus the
	// post-refit slack-revalidation pass. TraversalSavedNS estimates the
	// traversal time the cache avoided, taking the run's first full plan
	// build as the per-step cost a non-caching evaluator would re-pay
	// (reported only under the persistent auto policy).
	TraversalNS      int64 `json:"traversal_ns"`
	TraversalSavedNS int64 `json:"traversal_saved_ns"`
}

// StepPair compares the two policies on one (dist, n, workers) cell.
type StepPair struct {
	Dist    string  `json:"dist"`
	N       int     `json:"n"`
	Workers int     `json:"workers"`
	Steps   int     `json:"steps"`
	Dt      float64 `json:"dt"`
	// ConstructSpeedup is every's tree-construction time over auto's: how
	// much cheaper the persistent engine's incremental maintenance is than
	// sorting a fresh octree per force evaluation. Moment computation is
	// excluded on both sides — it is identical work for both policies.
	ConstructSpeedup float64 `json:"construct_speedup_auto"`
	// RefitPhiDrift is the relative 2-norm gap between the refit engine's
	// potentials and a fresh build at the same final positions;
	// RefitPhiBound is the corresponding Theorem 2 budget (both
	// evaluators' bound sums over the fresh potentials' 2-norm). Drift
	// within the budget is the refit correctness criterion.
	RefitPhiDrift float64 `json:"refit_phi_drift"`
	RefitPhiBound float64 `json:"refit_phi_bound"`
	// TrajDrift is the RMS position gap between the auto and every
	// trajectories after the run, over the RMS position magnitude.
	TrajDrift float64 `json:"traj_drift"`
}

// Doc is the complete benchmark document.
type Doc struct {
	Schema     string        `json:"schema"`
	Go         string        `json:"go"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Timestamp  string        `json:"timestamp"`
	Method     string        `json:"method"`
	Alpha      float64       `json:"alpha"`
	Degree     int           `json:"degree"`
	Reps       int           `json:"reps"`
	Seed       int64         `json:"seed"`
	Results    []Result      `json:"results"`
	Pairs      []Pair        `json:"pairs"`
	Builds     []BuildResult `json:"builds"`
	Steps      []StepResult  `json:"steps,omitempty"`
	StepPairs  []StepPair    `json:"step_pairs,omitempty"`
}

// ReadDoc parses a benchmark document from path. It accepts any
// treecode-bench/* schema (older documents simply lack the newer
// sections) but rejects documents without the schema prefix, so a stray
// obs snapshot or unrelated JSON fails loudly instead of diffing as all
// zeros. Versioned requirements are enforced: a v5 (or newer) document
// whose steps entries lack the plan section is rejected — the section is
// mandatory from v5 on, and rendering it as empty cells would hide a
// producer that stopped recording plan counters.
func ReadDoc(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	const prefix = "treecode-bench/v"
	if !strings.HasPrefix(d.Schema, prefix) {
		return nil, fmt.Errorf("%s: schema %q is not a treecode-bench document", path, d.Schema)
	}
	ver, err := strconv.Atoi(strings.TrimPrefix(d.Schema, prefix))
	if err != nil {
		return nil, fmt.Errorf("%s: schema %q has no parsable version", path, d.Schema)
	}
	if ver >= 5 {
		for i := range d.Steps {
			if d.Steps[i].Plan == nil {
				s := &d.Steps[i]
				return nil, fmt.Errorf("%s: steps[%d] (%s n=%d workers=%d policy=%s) is missing the plan section required since schema v5",
					path, i, s.Dist, s.N, s.Workers, s.Policy)
			}
		}
	}
	return &d, nil
}
