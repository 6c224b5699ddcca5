package main

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"treecode/bench/spec"
)

// smokeScale divides every workload's size for the smoke test.
const smokeScale = 50

var (
	smokeOnce sync.Once
	smoke     map[string][2]*report // workload -> untraced, traced
	smokeErr  error
)

// smokeRuns runs every workload untraced and traced at 1/smokeScale of its
// size with a minimal timed loop, once per test binary.
func smokeRuns(t *testing.T) map[string][2]*report {
	t.Helper()
	smokeOnce.Do(func() {
		smoke = map[string][2]*report{}
		p := params{seed: 1, scale: smokeScale, workers: runtime.GOMAXPROCS(0)}
		for _, w := range workloads {
			var pair [2]*report
			for i, run := range []func(workload, params, time.Duration) (*report, error){measure, traced} {
				r, err := run(w, p, time.Millisecond)
				if err != nil {
					smokeErr = fmt.Errorf("%s: %w", w.name, err)
					return
				}
				pair[i] = r
			}
			smoke[w.name] = pair
		}
	})
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smoke
}

func loadSpec(t *testing.T) *spec.Spec {
	t.Helper()
	s, err := spec.Load("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Every metric BENCHMARK.json names is emitted by every workload, finite,
// with its unit, and no operation fails at the smoke scale.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for name, pair := range smokeRuns(t) {
		for i, metrics := range [][]spec.Metric{s.EndToEnd, s.PerLayer} {
			res := pair[i].res
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d operations failed\n%s",
					name, i, res.Correct, res.Failed, res.Attempted, pair[i].table())
			}
			for _, m := range metrics {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s not emitted", name, i, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace %d: %s = %v", name, i, m.Name, v.Value)
				case v.Unit != m.Unit:
					t.Errorf("%s trace %d: %s has unit %q, BENCHMARK.json says %q", name, i, m.Name, v.Unit, m.Unit)
				case i == 0 && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, v.Value)
				}
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json names exactly the workloads the program runs and the
// metrics it emits, within the limits its format sets.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	if !slices.Equal(s.Paths, []string{"bench"}) || s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", s.Paths, s.RunSeconds)
	}
	var specWorkloads, progWorkloads []string
	for _, w := range s.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	for _, w := range workloads {
		progWorkloads = append(progWorkloads, w.name)
	}
	if !slices.Equal(specWorkloads, progWorkloads) || len(progWorkloads) < 2 || len(progWorkloads) > 8 {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", specWorkloads, progWorkloads)
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 || len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(s.EndToEnd), len(s.PerLayer))
	}
	seen := map[string]bool{}
	for _, name := range specWorkloads {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	var largest float64
	for _, m := range append(append([]spec.Metric(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] || !unitRE.MatchString(m.Unit) ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad metric %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		largest = max(largest, *m.Bound)
	}
	for _, m := range s.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	i := slices.IndexFunc(s.EndToEnd, func(m spec.Metric) bool { return m.Name == "setup_s" })
	if i < 0 || s.EndToEnd[i].Unit != "s" || s.EndToEnd[i].Better != "lower" || *s.EndToEnd[i].Bound != largest {
		t.Error("setup_s must be an end-to-end metric in s, lower is better, with the largest bound")
	}

	for name, pair := range smokeRuns(t) {
		for i, metrics := range [][]spec.Metric{s.EndToEnd, s.PerLayer} {
			var want, got []string
			for _, m := range metrics {
				want = append(want, m.Name)
			}
			for m := range pair[i].res.Metrics {
				got = append(got, m)
			}
			sort.Strings(want)
			sort.Strings(got)
			if !slices.Equal(want, got) {
				t.Errorf("%s trace %d emits %v\nBENCHMARK.json names %v", name, i, got, want)
			}
		}
	}
}
