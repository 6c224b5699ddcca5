// Command obsreport renders an obs snapshot trace — the JSON a driver
// writes with -obsjson — as human-readable per-step tables: one row per
// StepSample with the refit kind, migrant count, radius inflation,
// predicted vs realized Theorem 2 budget, wall times and plan reuse,
// followed by the event journal and the whole-run rollups:
//
//	obsreport trace.json
//	obsreport -o report.txt trace.json
//
// JSON whose schema is not treecode-obs/* is rejected.
//
// Exit status: 0 rendered, 2 usage or read error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"treecode/internal/cliio"
	"treecode/internal/obs"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: obsreport [-o report.txt] TRACE.json")
		os.Exit(2)
	}
	w, err := cliio.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(2)
	}
	if err := render(w, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(2)
	}
	if err := w.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(2)
	}
}

// ms renders nanoseconds as milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// render prints one obs snapshot trace: the per-step table, the event
// journal and the rollup summary of its step series.
func render(w *cliio.Output, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	snap, err := decodeSnapshot(raw)
	if err != nil {
		return fmt.Errorf("%s: not an obs snapshot: %w", path, err)
	}
	fmt.Fprintf(w.W, "%s: %s obs snapshot\n", path, snap.Schema)
	fmt.Fprintf(w.W, "  %4s %-6s %9s %11s %9s %12s %12s %8s %8s %8s %10s %8s\n",
		"step", "kind", "migrants", "migr_frac", "inflate", "budget_pred", "budget_real", "wall_ms", "eval_ms", "steals", "plan_reuse", "plan_ms")
	for _, s := range snap.Series.Samples {
		fmt.Fprintf(w.W, "  %4d %-6s %9d %11.4g %9.4g %12.5g %12.5g %8.2f %8.2f %8d %10.4f %8.2f\n",
			s.Step, s.RefitKind, s.Migrants, s.MigrantFrac, s.RadiusInflation,
			s.BudgetPred, s.BudgetReal, ms(s.WallNS), ms(s.EvalNS), s.Steals,
			s.PlanReuse, ms(s.PlanCollectNS))
	}
	if roll := snap.Series.Rollup; roll.Steps > 0 {
		n := roll.Steps
		fmt.Fprintf(w.W, "  rollup: %d steps (%d build, %d refit, %d full; %d evicted)\n",
			n, roll.Builds, roll.Refits, roll.Rebuilds, roll.Dropped)
		fmt.Fprintf(w.W, "  rollup: wall mean %.2f ms max %.2f ms, eval mean %.2f ms, migrants mean %.1f max %.0f\n",
			roll.Wall.Mean(n)/1e6, roll.Wall.Max/1e6, roll.Eval.Mean(n)/1e6,
			roll.Migrants.Mean(n), roll.Migrants.Max)
		fmt.Fprintf(w.W, "  rollup: budget_pred mean %.5g max %.5g, budget_real mean %.5g max %.5g\n",
			roll.BudgetPred.Mean(n), roll.BudgetPred.Max, roll.BudgetReal.Mean(n), roll.BudgetReal.Max)
		fmt.Fprintf(w.W, "  rollup: plan reuse mean %.4f, plan collect mean %.2f ms max %.2f ms\n",
			roll.PlanReuse.Mean(n), roll.PlanCollect.Mean(n)/1e6, roll.PlanCollect.Max/1e6)
	}
	for _, e := range snap.Journal.Events {
		fmt.Fprintf(w.W, "  event t=%-12s step=%-4d %-18s value=%-10.4g %s\n",
			time.Duration(e.TimeNS).Round(time.Microsecond), e.Step, e.Kind, e.Value, e.Reason)
	}
	return nil
}

// decodeSnapshot parses an obs snapshot trace, insisting on its schema tag
// so arbitrary JSON is rejected.
func decodeSnapshot(raw []byte) (*obs.Snapshot, error) {
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, err
	}
	if !strings.HasPrefix(snap.Schema, "treecode-obs/") {
		return nil, fmt.Errorf("schema %q is not a treecode-obs snapshot", snap.Schema)
	}
	return &snap, nil
}
