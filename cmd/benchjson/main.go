// Command benchjson records the walk-vs-batched benchmark trajectory as a
// machine-readable JSON document (BENCH_treecode.json at the repo root).
// For every (distribution, n, workers, eval mode) cell it builds the same
// evaluator, times repeated potential evaluations, and reports the paper's
// cost counters next to the wall-clock numbers; per (distribution, n,
// workers) pair it derives the batched-over-walk speedup and the relative
// drift between the two modes (which share the exact same interaction set,
// so the drift is pure summation-order roundoff). For sizes up to -maxdirect
// it also measures the true relative error and the Theorem 2 bound sum
// against O(n^2) direct summation. A separate builds section records the
// construction pipeline's phase timings (tree build, degree selection,
// upward pass, identity recharge) per worker count for both tree
// constructions, via the core/build, core/upward, and core/recharge obs
// spans.
//
// A steps section benchmarks the evaluator lifecycle across leapfrog
// timesteps: for each worker count it advances the same initial state under
// both rebuild policies — every (a fresh construction per force evaluation)
// and auto (one persistent engine maintained by incremental refits) — and
// records tree-construction time separately from moment time (the upward
// pass is identical work for both policies), refit counters, the
// trajectory drift between the policies, and the relative gap between the
// refit engine's potentials and a fresh build at the same final positions
// next to its Theorem 2 budget. Steps run in batched eval mode by default
// (-stepeval) so the persistent interaction-plan cache is exercised; each
// steps entry carries the schema-v5 plan section (entry reuse fraction,
// revalidation losses, traversal time saved).
//
// A block-timestep cell (-blockrungs, -blocketa, -blockcount) additionally
// steps the same distribution under the hierarchical block scheme — finest
// rung at -stepdt, macro step stepdt*2^(rungs-1) — against a global-dt
// reference over the same physical time, and records the schema-v6 block
// section: rung occupancy, force-evaluation reduction, trajectory gap, and
// mixed-age phi drift against its Theorem 2 budget.
//
// The checked-in BENCH_treecode.json is produced by the default flags; CI
// runs the short variant (-sizes 2000,8000 -reps 1 plus a small steps
// cell) and uploads the result as an artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"treecode/internal/benchfmt"
	"treecode/internal/cliio"
	"treecode/internal/core"
	"treecode/internal/direct"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/sim"
	"treecode/internal/stats"
	"treecode/internal/vec"
)

// The document types live in internal/benchfmt (shared with cmd/obsreport);
// the aliases keep this file reading naturally.
type (
	result      = benchfmt.Result
	pair        = benchfmt.Pair
	buildResult = benchfmt.BuildResult
	stepResult  = benchfmt.StepResult
	stepPair    = benchfmt.StepPair
	doc         = benchfmt.Doc
)

// spanMS returns the duration in ms of the first span matching path (a
// top-level name followed by child names), or 0 when absent.
func spanMS(spans []obs.SpanData, path ...string) float64 {
	for _, s := range spans {
		if s.Name != path[0] {
			continue
		}
		if len(path) == 1 {
			return float64(s.DurNS) / 1e6
		}
		return spanMS(s.Children, path[1:]...)
	}
	return 0
}

// sumSpansMS sums the durations of every top-level span with the given
// name and returns the total in ms plus the span count. Unlike spanMS it
// covers repeated spans — a k-step run emits one core/build or core/refit
// span per force evaluation.
func sumSpansMS(spans []obs.SpanData, name string) (float64, int) {
	var ms float64
	var count int
	for _, s := range spans {
		if s.Name == name {
			ms += float64(s.DurNS) / 1e6
			count++
		}
	}
	return ms, count
}

// runSteps advances one rebuild policy over a fresh copy of the seeded
// initial state and returns its cost record plus the simulator and the
// collector (for the cross-policy comparisons and, in block mode, the rung
// counters). The block config is the zero value for global-dt runs; label
// overrides the recorded policy name when non-empty ("block" cells step
// under the auto policy but are keyed separately).
func runSteps(dist string, n, workers, steps int, dt float64, seed int64, base core.Config, policy sim.RebuildPolicy, block sim.BlockConfig, label string) (stepResult, *sim.Simulator, *obs.Collector, error) {
	if label == "" {
		label = policy.String()
	}
	sr := stepResult{Dist: dist, N: n, Workers: workers, Steps: steps, Dt: dt, Policy: label}
	set, err := points.Generate(points.Distribution(dist), n, seed)
	if err != nil {
		return sr, nil, nil, err
	}
	col := obs.New()
	cfg := base
	cfg.Workers = workers
	cfg.Obs = col
	s, err := sim.New(sim.State{Set: set, Vel: make([]vec.V3, set.N())}, sim.Config{
		Dt: dt, Force: cfg, Rebuild: policy, Block: block,
	})
	if err != nil {
		return sr, nil, nil, err
	}
	start := time.Now()
	if err := s.Run(steps); err != nil {
		return sr, nil, nil, err
	}
	sr.TotalMS = float64(time.Since(start)) / float64(time.Millisecond)
	// A fresh construction emits core/build (tree sort + degree selection)
	// plus a top-level core/upward for the moments; a refit nests its
	// upward child inside the core/refit span. Splitting the refit at that
	// child keeps the two policies' construct/moments split symmetric. The
	// refit's plans child (interaction-plan revalidation) is excluded from
	// the construct share too: it is traversal maintenance, not tree
	// maintenance, so it is charged to the plan block's traversal_ns next
	// to the traversal_saved_ns it buys.
	spans := col.Spans()
	buildMS, builds := sumSpansMS(spans, "core/build")
	upwardMS, _ := sumSpansMS(spans, "core/upward")
	var refitMS, refitUpMS, refitPlanMS float64
	for _, s := range spans {
		if s.Name != "core/refit" {
			continue
		}
		refitMS += float64(s.DurNS) / 1e6
		for _, c := range s.Children {
			switch c.Name {
			case "upward":
				refitUpMS += float64(c.DurNS) / 1e6
			case "plans":
				refitPlanMS += float64(c.DurNS) / 1e6
			}
		}
	}
	sr.ConstructMS = buildMS + refitMS - refitUpMS - refitPlanMS
	sr.MomentsMS = upwardMS + refitUpMS
	sr.Builds = builds
	r := col.Metrics().Refit
	sr.Refits, sr.Rebuilds = r.Refits, r.Rebuilds
	sr.Migrants, sr.Splits, sr.Merges = r.Migrants, r.Splits, r.Merges
	sr.RadiusInflationMax = r.RadiusInflationMax
	sr.Samples = col.StepSamples()
	sr.Rollup = col.SeriesRollup()
	sr.Journal = col.Events()
	pm := col.Metrics().Plan
	plan := &benchfmt.StepPlan{
		EntriesReused:  pm.EntriesReused,
		EntriesRebuilt: pm.EntriesRebuilt,
		ReuseFrac:      pm.ReuseFrac(),
		Invalidated:    pm.Invalidated,
		Drops:          pm.Drops,
		TraversalNS:    pm.CollectNS + int64(refitPlanMS*1e6),
	}
	// Traversal saved by the plan cache: a non-caching evaluator re-pays
	// the run's first full collect on every subsequent step, so the saving
	// is the gap between that baseline and what each step actually spent.
	// Only meaningful under the persistent engine — the every policy
	// rebuilds from scratch each evaluation, so its gap is noise.
	if policy == sim.RebuildAuto && len(sr.Samples) > 0 {
		baseline := sr.Samples[0].PlanCollectNS
		for _, smp := range sr.Samples[1:] {
			if d := baseline - smp.PlanCollectNS; d > 0 {
				plan.TraversalSavedNS += d
			}
		}
	}
	sr.Plan = plan
	return sr, s, col, nil
}

// measureSteps benchmarks the evaluator lifecycle across leapfrog steps:
// the every policy (fresh construction per force evaluation) against the
// auto policy (persistent engine, incremental refits) from the same seeded
// initial state, comparing construction cost, trajectories, and the refit
// engine's accuracy at the final positions.
func measureSteps(dist string, n, workers, steps int, dt float64, seed int64, base core.Config) ([]stepResult, stepPair, error) {
	sp := stepPair{Dist: dist, N: n, Workers: workers, Steps: steps, Dt: dt}
	every, sE, _, err := runSteps(dist, n, workers, steps, dt, seed, base, sim.RebuildEvery, sim.BlockConfig{}, "")
	if err != nil {
		return nil, sp, err
	}
	auto, sA, _, err := runSteps(dist, n, workers, steps, dt, seed, base, sim.RebuildAuto, sim.BlockConfig{}, "")
	if err != nil {
		return nil, sp, err
	}
	if auto.ConstructMS > 0 {
		sp.ConstructSpeedup = every.ConstructMS / auto.ConstructMS
	}

	// RMS trajectory gap between the policies' final positions, over the
	// RMS position magnitude.
	var gap2, mag2 float64
	for i := range sE.State.Set.Particles {
		pe, pa := sE.State.Set.Particles[i].Pos, sA.State.Set.Particles[i].Pos
		gap2 += pa.Sub(pe).Norm2()
		mag2 += pe.Norm2()
	}
	if mag2 > 0 {
		sp.TrajDrift = math.Sqrt(gap2 / mag2)
	}

	// The closing kick of the last step left the engine positioned at the
	// final state, so its potentials can be compared directly against a
	// fresh build there, next to the two Theorem 2 budgets.
	if eng := sA.Engine(); eng != nil {
		phiR, stR := eng.Potentials()
		cfgF := base
		cfgF.Workers = workers
		fresh, err := core.New(sA.State.Set, cfgF)
		if err != nil {
			return nil, sp, err
		}
		phiF, stF := fresh.Potentials()
		sp.RefitPhiDrift = stats.RelErr2(phiR, phiF)
		if norm := stats.Norm2(phiF); norm > 0 {
			sp.RefitPhiBound = (stR.BoundSum + stF.BoundSum) / norm
		}
	}
	return []stepResult{every, auto}, sp, nil
}

// measureBlockSteps benchmarks the hierarchical block-timestep scheme on
// one (dist, n, workers) cell: a block run whose finest rung steps at dtMin
// (so the macro step is dtMin*2^(rungs-1)), against a global-dt reference
// advanced over the same physical time at dtMin — the cost a global
// integrator pays to resolve the block run's finest configured grid. The
// returned cell carries the schema-v6 block section: rung occupancy, the
// force-evaluation reduction against N x substeps, the trajectory gap to
// the reference, and the mixed-age phi drift next to its Theorem 2 budget
// at the final (macro-synchronized) positions.
func measureBlockSteps(dist string, n, workers, macroSteps, rungs int, dtMin, eta float64, seed int64, base core.Config) (stepResult, error) {
	nsub := 1 << (rungs - 1)
	dtMacro := dtMin * float64(nsub)
	blk, sB, colB, err := runSteps(dist, n, workers, macroSteps, dtMacro, seed, base,
		sim.RebuildAuto, sim.BlockConfig{MaxRungs: rungs, Eta: eta}, "block")
	if err != nil {
		return blk, err
	}
	_, sG, _, err := runSteps(dist, n, workers, macroSteps*nsub, dtMin, seed, base,
		sim.RebuildAuto, sim.BlockConfig{}, "")
	if err != nil {
		return blk, err
	}

	bm := colB.Metrics().Block
	sb := &benchfmt.StepBlock{
		Rungs: rungs, Eta: eta, MacroSteps: macroSteps,
		Substeps:   bm.Substeps,
		ForceEvals: bm.ForceEvals,
		// A global run resolving the same finest occupied grid evaluates
		// every particle on every non-empty substep.
		GlobalEvals: int64(n) * bm.Substeps,
		Occupancy:   bm.Occupancy,
		Promotions:  bm.Promotions,
		Demotions:   bm.Demotions,
		Staleness:   bm.Staleness,
	}
	if bm.ForceEvals > 0 {
		sb.EvalReduction = float64(sb.GlobalEvals) / float64(bm.ForceEvals)
	}

	// RMS trajectory gap against the global-dt reference at the shared
	// final time, over the RMS position magnitude.
	var gap2, mag2 float64
	for i := range sB.State.Set.Particles {
		pb, pg := sB.State.Set.Particles[i].Pos, sG.State.Set.Particles[i].Pos
		gap2 += pb.Sub(pg).Norm2()
		mag2 += pg.Norm2()
	}
	if mag2 > 0 {
		sb.TrajDrift = math.Sqrt(gap2 / mag2)
	}

	// Every macro step's last evaluation sees all particles synchronized at
	// the macro boundary, so the block engine ends positioned at the final
	// state and its potentials compare directly against a fresh build there.
	if eng := sB.Engine(); eng != nil {
		phiR, stR := eng.Potentials()
		cfgF := base
		cfgF.Workers = workers
		fresh, err := core.New(sB.State.Set, cfgF)
		if err != nil {
			return blk, err
		}
		phiF, stF := fresh.Potentials()
		sb.PhiDrift = stats.RelErr2(phiR, phiF)
		if norm := stats.Norm2(phiF); norm > 0 {
			sb.PhiBudget = (stR.BoundSum + stF.BoundSum) / norm
		}
	}
	blk.Block = sb
	return blk, nil
}

// measureBuild times one construction cell (best of reps by total).
func measureBuild(set *points.Set, cfg core.Config, reps int) (buildResult, error) {
	var best buildResult
	best.TotalMS = math.Inf(1)
	q := make([]float64, set.N())
	for i, p := range set.Particles {
		q[i] = p.Charge
	}
	for r := 0; r < reps; r++ {
		col := obs.New()
		cfg.Obs = col
		e, err := core.New(set, cfg)
		if err != nil {
			return best, err
		}
		if err := e.SetCharges(q); err != nil {
			return best, err
		}
		spans := col.Spans()
		br := buildResult{
			TreeMS:           spanMS(spans, "core/build", "tree"),
			DegreesMS:        spanMS(spans, "core/build", "degrees"),
			UpwardMS:         spanMS(spans, "core/upward"),
			RechargeMS:       spanMS(spans, "core/recharge"),
			RechargeStatsMS:  spanMS(spans, "core/recharge", "stats"),
			RechargeUpwardMS: spanMS(spans, "core/recharge", "upward"),
		}
		br.TotalMS = br.TreeMS + br.DegreesMS + br.UpwardMS
		if br.TotalMS < best.TotalMS {
			best = br
		}
	}
	return best, nil
}

func main() {
	dists := flag.String("dists", "uniform,gaussian", "comma-separated distributions")
	sizes := flag.String("sizes", "10000,100000", "comma-separated particle counts")
	alpha := flag.Float64("alpha", 0.5, "acceptance parameter")
	degree := flag.Int("degree", 4, "multipole degree")
	method := flag.String("method", "adaptive", "original or adaptive")
	reps := flag.Int("reps", 2, "evaluations per cell (best is reported)")
	seed := flag.Int64("seed", 42, "point-set seed")
	maxDirect := flag.Int("maxdirect", 20000, "largest n to check against direct summation")
	buildWorkers := flag.String("buildworkers", "1,4,8", "comma-separated worker counts for the construction-phase section (empty disables)")
	stepDist := flag.String("stepdist", "plummer", "distribution for the steps section")
	stepN := flag.Int("stepn", 100000, "particle count for the steps section (0 disables)")
	stepCount := flag.Int("stepcount", 10, "leapfrog steps per policy in the steps section")
	stepDt := flag.Float64("stepdt", 1e-4, "timestep for the steps section (small enough that every update refits at the default -stepn and -stepcount)")
	stepEval := flag.String("stepeval", "batched", "eval mode for the steps section (walk or batched; batched exercises the interaction-plan cache)")
	blockRungs := flag.Int("blockrungs", 5, "rung count for the block-timestep steps cell (0 or 1 disables; the finest rung steps at -stepdt, so the macro step is stepdt*2^(rungs-1))")
	blockEta := flag.Float64("blocketa", 1.0, "timestep-criterion prefactor for the block cell (dt_i = eta*sqrt(scale/|a_i|))")
	blockCount := flag.Int("blockcount", 2, "macro steps in the block-timestep cell (0 disables)")
	out := flag.String("o", "BENCH_treecode.json", "output file (- for stdout)")
	flag.Parse()

	m := core.Original
	if strings.TrimSpace(*method) == "adaptive" {
		m = core.Adaptive
	}
	if err := (core.Config{Method: m, Alpha: *alpha, Degree: *degree}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Serial and full-machine worker counts (deduplicated on 1-CPU hosts).
	workerCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerCounts = append(workerCounts, p)
	}

	d := doc{
		Schema:     benchfmt.Schema,
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Method:     m.String(),
		Alpha:      *alpha,
		Degree:     *degree,
		Reps:       *reps,
		Seed:       *seed,
	}

	for _, dist := range splitTrim(*dists) {
		for _, nStr := range splitTrim(*sizes) {
			n, err := strconv.Atoi(nStr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad size %q: %v\n", nStr, err)
				os.Exit(1)
			}
			set, err := points.Generate(points.Distribution(dist), n, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			var exact []float64
			if n <= *maxDirect {
				exact = direct.SelfPotentials(set, 0)
			}
			for _, workers := range workerCounts {
				var walkPhi, batchedPhi []float64
				var walkRes, batchedRes *result
				for _, mode := range []core.EvalMode{core.EvalWalk, core.EvalBatched} {
					cfg := core.Config{Method: m, Alpha: *alpha, Degree: *degree, Workers: workers, Eval: mode}
					e, err := core.New(set, cfg)
					if err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					var phi []float64
					var st *core.Stats
					best := math.Inf(1)
					for r := 0; r < *reps; r++ {
						p, s := e.Potentials()
						if ms := float64(s.EvalTime) / float64(time.Millisecond); ms < best {
							best = ms
						}
						phi, st = p, s
					}
					res := result{
						Dist: dist, N: n, Mode: mode.String(), Workers: workers,
						BuildMS: float64(e.BuildTime()) / float64(time.Millisecond),
						EvalMS:  best,
						Terms:   st.Terms, PC: st.PC, PP: st.PP,
						MaxDegree: st.MaxDegree, BoundSum: st.BoundSum,
					}
					if exact != nil {
						re := stats.RelErr2(phi, exact)
						res.RelErrDirect = &re
					}
					d.Results = append(d.Results, res)
					if mode == core.EvalWalk {
						walkPhi, walkRes = phi, &d.Results[len(d.Results)-1]
					} else {
						batchedPhi, batchedRes = phi, &d.Results[len(d.Results)-1]
					}
					fmt.Fprintf(os.Stderr, "%-10s n=%-7d workers=%d %-7s eval %.1f ms\n",
						dist, n, workers, mode, best)
				}
				d.Pairs = append(d.Pairs, pair{
					Dist: dist, N: n, Workers: workers,
					Speedup:    walkRes.EvalMS / batchedRes.EvalMS,
					RelDrift:   stats.RelErr2(batchedPhi, walkPhi),
					WalkMS:     walkRes.EvalMS,
					BatchedMS:  batchedRes.EvalMS,
					BoundRatio: batchedRes.BoundSum / walkRes.BoundSum,
				})
			}
			for _, wStr := range splitTrim(*buildWorkers) {
				w, err := strconv.Atoi(wStr)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bad build worker count %q: %v\n", wStr, err)
					os.Exit(1)
				}
				cfg := core.Config{Method: m, Alpha: *alpha, Degree: *degree, Workers: w}
				br, err := measureBuild(set, cfg, *reps)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				br.Dist, br.N, br.Tree, br.Workers = dist, n, "recursive", w
				d.Builds = append(d.Builds, br)
				fmt.Fprintf(os.Stderr, "%-10s n=%-7d workers=%d build %.1f ms (tree %.1f, upward %.1f, recharge %.1f)\n",
					dist, n, w, br.TotalMS, br.TreeMS, br.UpwardMS, br.RechargeMS)
			}
		}
	}

	if *stepN > 0 && (*stepCount > 0 || (*blockRungs > 1 && *blockCount > 0)) {
		stepMode, err := core.ParseEvalMode(*stepEval)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		base := core.Config{Method: m, Alpha: *alpha, Degree: *degree, Eval: stepMode}
		if *stepCount > 0 {
			for _, workers := range workerCounts {
				srs, sp, err := measureSteps(*stepDist, *stepN, workers, *stepCount, *stepDt, *seed, base)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				d.Steps = append(d.Steps, srs...)
				d.StepPairs = append(d.StepPairs, sp)
				for _, sr := range srs {
					fmt.Fprintf(os.Stderr, "%-10s n=%-7d workers=%d steps=%d %-5s construct %.1f ms, moments %.1f ms of %.1f ms (%d builds, %d refits, plan reuse %.1f%%)\n",
						sr.Dist, sr.N, sr.Workers, sr.Steps, sr.Policy, sr.ConstructMS, sr.MomentsMS, sr.TotalMS, sr.Builds, sr.Refits, 100*sr.Plan.ReuseFrac)
				}
				fmt.Fprintf(os.Stderr, "%-10s n=%-7d workers=%d steps: construct speedup %.2fx, phi drift %.3g (budget %.3g), traj drift %.3g\n",
					*stepDist, *stepN, workers, sp.ConstructSpeedup, sp.RefitPhiDrift, sp.RefitPhiBound, sp.TrajDrift)
			}
		}
		if *blockRungs > 1 && *blockCount > 0 {
			for _, workers := range workerCounts {
				blk, err := measureBlockSteps(*stepDist, *stepN, workers, *blockCount, *blockRungs, *stepDt, *blockEta, *seed, base)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				d.Steps = append(d.Steps, blk)
				b := blk.Block
				fmt.Fprintf(os.Stderr, "%-10s n=%-7d workers=%d block rungs=%d eta=%g: %d evals over %d substeps vs %d global (%.2fx), occupancy %v\n",
					blk.Dist, blk.N, blk.Workers, b.Rungs, b.Eta, b.ForceEvals, b.Substeps, b.GlobalEvals, b.EvalReduction, b.Occupancy)
				fmt.Fprintf(os.Stderr, "%-10s n=%-7d workers=%d block: phi drift %.3g (budget %.3g), traj drift %.3g, %d promotions, %d demotions, staleness %.3g\n",
					blk.Dist, blk.N, blk.Workers, b.PhiDrift, b.PhiBudget, b.TrajDrift, b.Promotions, b.Demotions, b.Staleness)
			}
		}
	}

	w, err := cliio.Create(pathOrStdout(*out))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(w.W)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := w.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func pathOrStdout(p string) string {
	if p == "-" {
		return ""
	}
	return p
}

func splitTrim(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
