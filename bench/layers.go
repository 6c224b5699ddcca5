package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"treecode/bench/spec"
	"treecode/internal/obs"
	"treecode/internal/points"
	"treecode/internal/tree"
)

// probeReps is how many times the traced run repeats each probe call; the
// metric is the median.
const probeReps = 3

// evalSpans are the top-level span names, after their "core/" or "fmm/"
// prefix, that time one evaluation.
var evalSpans = []string{"potentials", "potentials-at", "fields", "eval"}

// spanMS returns, in milliseconds, the durations of the top-level spans
// whose name without its "core/" or "fmm/" prefix is one of tops, or of
// their children named child when child is not empty.
func spanMS(spans []obs.SpanData, child string, tops ...string) []float64 {
	var out []float64
	for _, s := range spans {
		if _, name, _ := strings.Cut(s.Name, "/"); !slices.Contains(tops, name) {
			continue
		}
		if child == "" {
			out = append(out, float64(s.DurNS)/1e6)
			continue
		}
		for _, c := range s.Children {
			if c.Name == child {
				out = append(out, float64(c.DurNS)/1e6)
			}
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// traced is the traced run: the per-layer metrics. Its timed loop
// alternates untraced and traced units on the same engine, so the
// collector's overhead is measured in the process that pays it. Spans
// come from the collector the evaluators already carry (Config.Obs); the
// layers the loop does not exercise, and the timings that have no span,
// are probed afterwards through the layers' public functions.
func traced(w workload, p params, d time.Duration) (*report, error) {
	build, err := w.prepare(p)
	if err != nil {
		return nil, err
	}
	in, _, setupCols, err := setUp(build, true)
	if err != nil {
		return nil, err
	}
	in.eng.setObs(nil)
	var degrees, coldCollect []float64
	for _, col := range setupCols {
		spans := col.Spans()
		degrees = append(degrees, spanMS(spans, "degrees", "build")...)
		if ev := sum(spanMS(spans, "", evalSpans...)); ev > 0 {
			m := col.Metrics()
			coldCollect = append(coldCollect, float64(m.Plan.CollectNS)/1e6/ev)
		}
	}
	runtime.GC()

	r := newReport()
	col := obs.New()
	units := r.loop(in, d, 2, func(k int) {
		if k%2 == 1 {
			in.eng.setObs(col)
		} else {
			in.eng.setObs(nil)
		}
	})
	in.eng.setObs(nil)
	var on, off []sample
	for k, u := range units {
		if k%2 == 1 {
			on = append(on, u...)
		} else {
			off = append(off, u...)
		}
	}
	loopSpans := col.Spans()
	evalMS := spanMS(loopSpans, "", evalSpans...)
	m := col.Metrics()
	evals := float64(len(evalMS))
	relErr, boundFrac := r.checkAccuracy(in)
	r.note("%s; %d traced and %d untraced operations", describe(in), len(on), len(off))
	r.noteSpans(loopSpans)

	timeEval := func(workers int) (float64, census) {
		in.eng.setWorkers(workers)
		defer in.eng.setWorkers(p.workers)
		var c census
		ts := make([]float64, probeReps)
		for i := range ts {
			t0 := time.Now()
			c = in.eval()
			ts[i] = msSince(t0)
		}
		return spec.Median(ts), c
	}
	wN, c := timeEval(p.workers)
	w1, _ := timeEval(1)

	t := in.eng.tree()
	maxDegree := 0
	t.Walk(func(n *tree.Node) { maxDegree = max(maxDegree, n.Degree) })
	src := in.sources()
	build1 := make([]float64, probeReps)
	for i := range build1 {
		t0 := time.Now()
		if _, err := tree.Build(src, tree.Config{LeafCap: t.LeafCap, Workers: p.workers}); err != nil {
			return nil, err
		}
		build1[i] = msSince(t0)
	}

	// Recharge and refit probes for the workloads whose loop does neither.
	// A zero-motion refit can inflate conservative radii, so it runs after
	// every probe that evaluates.
	in.eng.setObs(col)
	if len(spanMS(loopSpans, "", "recharge")) == 0 {
		q := charges(src)
		for i := 0; i < probeReps; i++ {
			if err := in.eng.SetCharges(q); err != nil {
				return nil, fmt.Errorf("recharge probe: %w", err)
			}
		}
	}
	if len(spanMS(loopSpans, "", "refit")) == 0 {
		pos := src.Positions()
		for i := 0; i < probeReps; i++ {
			if _, err := in.eng.Update(pos); err != nil {
				return nil, fmt.Errorf("refit probe: %w", err)
			}
		}
	}
	in.eng.setObs(nil)
	spans := col.Spans()
	upward := spec.Median(spanMS(spans, "upward", "recharge", "refit"))

	r.add("tree.build_ms", "ms", spec.Median(build1))
	r.add("tree.nodes", "count", float64(t.NNodes))
	r.add("tree.leaves", "count", float64(t.NLeaves))
	r.add("tree.height", "count", float64(t.Height))
	r.add("tree.refit_ms", "ms", spec.Median(spanMS(spans, "tree", "refit")))
	r.add("bounds.degrees_ms", "ms", spec.Median(degrees))
	r.add("bounds.max_degree", "count", float64(maxDegree))
	r.add("upward.ms", "ms", upward)
	r.add("upward.terms", "count", float64(c.upTerms))
	r.add("upward.ns_per_term", "ns/term", upward*1e6/float64(c.upTerms))
	r.add("recharge.ms", "ms", spec.Median(spanMS(spans, "", "recharge")))
	r.add("recharge.stats_ms", "ms", spec.Median(spanMS(spans, "stats", "recharge")))
	r.add("plan.reuse_frac", "frac", m.Plan.ReuseFrac())
	r.add("plan.entries", "count", float64(m.Plan.EntriesReused+m.Plan.EntriesRebuilt)/evals)
	r.add("plan.cold_collect_frac", "frac", medianOr0(coldCollect))
	r.add("eval.ms", "ms", spec.Median(evalMS))
	r.add("eval.terms", "count", float64(c.terms))
	r.add("eval.far", "count", float64(c.far))
	r.add("eval.near_pairs", "count", float64(c.near))
	r.add("eval.ns_per_term", "ns/term", wN*1e6/float64(c.terms))
	r.add("eval.workers1_ms", "ms", w1)
	r.add("eval.scale_eff", "frac", w1/(float64(p.workers)*wN))
	r.add("sched.steals", "count", float64(m.Batch.Steals)/evals)
	r.add("accuracy.rel_err", "frac", relErr)
	r.add("accuracy.bound_frac", "frac", boundFrac)
	_, onWall, _, _ := medians(on)
	_, offWall, _, _ := medians(off)
	r.add("obs.overhead_frac", "frac", onWall/offWall-1)
	kernels(r)
	return r, nil
}

// noteSpans adds the median duration of every top-level span of the loop
// and of each of its named children (per-worker slices aside) to the
// stderr table: the splits that are not metrics because only one
// workload has them.
func (r *report) noteSpans(spans []obs.SpanData) {
	durs := map[string][]float64{}
	var order []string
	add := func(name string, ns int64) {
		if durs[name] == nil {
			order = append(order, name)
		}
		durs[name] = append(durs[name], float64(ns)/1e6)
	}
	for _, s := range spans {
		add(s.Name, s.DurNS)
		for _, c := range s.Children {
			if c.Worker < 0 {
				add(s.Name+"/"+c.Name, c.DurNS)
			}
		}
	}
	for _, name := range order {
		r.note("span %-28s median %9.3f ms over %d", name, spec.Median(durs[name]), len(durs[name]))
	}
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return spec.Median(xs)
}

func charges(set *points.Set) []float64 {
	q := make([]float64, set.N())
	for i, p := range set.Particles {
		q[i] = p.Charge
	}
	return q
}
