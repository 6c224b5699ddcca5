// Command bench is the repository benchmark. One run sets up one workload,
// drives it in a closed loop for a fixed time, checks its outputs and
// prints the metrics as one JSON object on the last line of standard
// output, with a readable table on standard error:
//
//	go run . -workload static-gauss -seed 1 -seconds 10 -trace 0
//
// -trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
// tracing off. -trace 1 is the separate traced run that reports the
// per-layer metrics. Everything runs in this one process, with evaluator
// workers equal to GOMAXPROCS equal to the number of CPUs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"treecode/bench/spec"
	"treecode/internal/obs"
	"treecode/internal/stats"
)

// setupRuns is how many times a run sets its workload up; setup_s is the
// median.
const setupRuns = 3

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed loop in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	p := params{seed: *seed, scale: 1, workers: nproc}
	run := measure
	if *trace == 1 {
		run = traced
	}
	r, err := run(w, p, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "workload %s  seed %d  trace %d  nproc %d  GOMAXPROCS %d  workers %d\n",
		w.name, p.seed, *trace, nproc, runtime.GOMAXPROCS(0), p.workers)
	fmt.Fprint(os.Stderr, r.table())
	if err := json.NewEncoder(os.Stdout).Encode(r.res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// report accumulates one run's result and the lines of its stderr table.
type report struct {
	res   spec.Result
	order []string
	notes []string
}

func newReport() *report {
	return &report{res: spec.Result{Correct: true, Metrics: map[string]spec.Value{}}}
}

func (r *report) add(name, unit string, v float64) {
	r.res.Metrics[name] = spec.Value{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// record counts one unit's operations and failures.
func (r *report) record(ops, failed int, err error) {
	r.res.Attempted += ops
	r.res.Failed += failed
	if err != nil && r.res.Correct {
		r.note("first failure: %v", err)
	}
	if failed > 0 || err != nil {
		r.res.Correct = false
	}
}

// checkAccuracy applies the run's accuracy check. The check covers the
// result every operation of the run reproduces or builds on, so when it
// fails every operation counts as failed.
func (r *report) checkAccuracy(in *instance) (relErr, boundFrac float64) {
	relErr, boundFrac, err := in.accuracy()
	r.note("accuracy: rel_err %.4g, realized error %.4g of its bound", relErr, boundFrac)
	if err != nil {
		r.note("accuracy check failed: %v", err)
		r.res.Failed = r.res.Attempted
		r.res.Correct = false
	}
	return relErr, boundFrac
}

func (r *report) table() string {
	t := stats.NewTable("metric", "value", "unit")
	for _, name := range r.order {
		v := r.res.Metrics[name]
		t.AddRow(name, v.Value, v.Unit)
	}
	s := strings.Join(r.notes, "\n")
	if s != "" {
		s += "\n"
	}
	return s + fmt.Sprintf("attempted %d  failed %d  correct %v\n", r.res.Attempted, r.res.Failed, r.res.Correct) + t.String()
}

// setUp builds the workload setupRuns times, each after a full GC with the
// previous instance dropped, and keeps the last. It returns the setup
// samples and, when traced, the fresh collector each build recorded into.
func setUp(build builder, traced bool) (*instance, []sample, []*obs.Collector, error) {
	var (
		in     *instance
		err    error
		cols   []*obs.Collector
		setups []sample
	)
	for i := 0; i < setupRuns; i++ {
		var col *obs.Collector
		if traced {
			col = obs.New()
			cols = append(cols, col)
		}
		in = nil
		runtime.GC()
		w := startWatch()
		if in, err = build(col); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, w.stop())
	}
	return in, setups, cols, nil
}

// loop runs closed-loop units until d has passed and at least minUnits
// have run, calling before(k) ahead of unit k, and returns each unit's
// operation samples.
func (r *report) loop(in *instance, d time.Duration, minUnits int, before func(k int)) [][]sample {
	var units [][]sample
	start := time.Now()
	for k := 0; k < minUnits || time.Since(start) < d; k++ {
		if before != nil {
			before(k)
		}
		ops, failed, err := in.unit()
		r.record(len(ops), failed, err)
		units = append(units, ops)
	}
	return units
}

// medians returns the median scaled time, wall time and CPU time of
// samples in seconds, and their median allocation in MB.
func medians(samples []sample) (scaled, wall, cpu, allocMB float64) {
	var sc, wa, cp, al []float64
	for _, s := range samples {
		sc = append(sc, s.scaled())
		wa = append(wa, s.wall.Seconds())
		cp = append(cp, s.cpu.Seconds())
		al = append(al, float64(s.alloc)/(1<<20))
	}
	return spec.Median(sc), spec.Median(wa), spec.Median(cp), spec.Median(al)
}

func flatten(units [][]sample) []sample {
	var all []sample
	for _, u := range units {
		all = append(all, u...)
	}
	return all
}

// measure is the untraced run: the end-to-end metrics.
func measure(w workload, p params, d time.Duration) (*report, error) {
	build, err := w.prepare(p)
	if err != nil {
		return nil, err
	}
	in, setups, _, err := setUp(build, false)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := float64(ms.HeapAlloc) / (1 << 20)
	r := newReport()
	ops := flatten(r.loop(in, d, 1, nil))
	r.checkAccuracy(in)
	r.note("%s; %d timed operations", describe(in), len(ops))
	setup, setupWall, _, _ := medians(setups)
	op, opWall, opCPU, alloc := medians(ops)
	r.note("raw wall times: setup %.4g s, operation %.4g ms (CPU %.4g ms)", setupWall, 1e3*opWall, 1e3*opCPU)
	r.add("setup_s", "s", setup)
	r.add("op_ms", "ms", 1e3*op)
	r.add("heap_mb", "MB", heap)
	r.add("alloc_mb_per_op", "MB", alloc)
	return r, nil
}
