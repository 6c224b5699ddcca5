// Command compare judges a change against its base from two sets of
// untraced benchmark results, by the rule BENCHMARK.json fixes:
//
//	go run ./compare -base 'A/*.json' -change 'B/*.json'
//
// Each file holds the last stdout line of one run and is named
// <workload>.<anything>.json; files with the same name on both sides form
// a pair (give them the same seed). For every end-to-end metric and
// workload it prints each side's median and quartiles, the change of the
// median, the share of pairs the change wins, and a verdict:
//
//	regression  the median worsened by more than the metric's bound
//	unresolved  one side's own spread (quartile distance over median)
//	            exceeds the bound, and not every run of the change reads
//	            better than every run of the base
//	better      the change wins at least nine tenths of the pairs and the
//	            medians differ by more than the base's quartile distance;
//	            where the spread exceeds the bound, every change run reads
//	            better than every base run
//	same        none of the above
//
// It exits 1 when a pair regresses or a run failed an operation, and 2 on
// bad input.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"treecode/bench/spec"
	"treecode/internal/stats"
)

func main() {
	base := flag.String("base", "", "glob or directory of the base's results")
	change := flag.String("change", "", "glob or directory of the change's results")
	specPath := flag.String("spec", "../BENCHMARK.json", "the benchmark description")
	flag.Parse()
	if *base == "" || *change == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: compare -base GLOB -change GLOB [-spec BENCHMARK.json]")
		os.Exit(2)
	}
	out, bad, err := run(*specPath, *base, *change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	fmt.Print(out)
	if bad {
		os.Exit(1)
	}
}

func run(specPath, basePattern, changePattern string) (string, bool, error) {
	s, err := spec.Load(specPath)
	if err != nil {
		return "", false, err
	}
	base, err := load(basePattern)
	if err != nil {
		return "", false, err
	}
	change, err := load(changePattern)
	if err != nil {
		return "", false, err
	}
	return compare(s, base, change)
}

// runs maps a workload name to its result files' base names to their
// results.
type runs map[string]map[string]spec.Result

func load(pattern string) (runs, error) {
	if st, err := os.Stat(pattern); err == nil && st.IsDir() {
		pattern = filepath.Join(pattern, "*.json")
	}
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %s", pattern)
	}
	out := runs{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var r spec.Result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		name := filepath.Base(f)
		w, _, _ := strings.Cut(name, ".")
		if out[w] == nil {
			out[w] = map[string]spec.Result{}
		}
		out[w][name] = r
	}
	return out, nil
}

// verdict is the judgement of one end-to-end metric on one workload.
type verdict struct {
	worse   float64 // change of the median, positive when worse
	won     int     // pairs the change reads better in
	verdict string
}

// judge applies the rule to one metric's values. pairs holds (base,
// change) values of runs present on both sides.
func judge(base, change []float64, pairs [][2]float64, bound float64, higherIsBetter bool) verdict {
	bq1, bmed, bq3 := spec.Quartiles(base)
	cq1, cmed, cq3 := spec.Quartiles(change)
	if bmed <= 0 || cmed <= 0 {
		// Every end-to-end metric is positive; a relative change of
		// anything else means nothing.
		return verdict{verdict: "unresolved"}
	}
	sign := 1.0
	if higherIsBetter {
		sign = -1
	}
	better := func(c, b float64) bool { return sign*(c-b) < 0 }
	v := verdict{worse: sign * (cmed - bmed) / bmed}
	for _, p := range pairs {
		if better(p[1], p[0]) {
			v.won++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	switch {
	case (bq3-bq1)/bmed > bound || (cq3-cq1)/cmed > bound:
		v.verdict = "unresolved"
		if allBetter {
			v.verdict = "better"
		}
	case v.worse > bound:
		v.verdict = "regression"
	case len(pairs) > 0 && float64(v.won) >= 0.9*float64(len(pairs)) && -v.worse*bmed > bq3-bq1:
		v.verdict = "better"
	default:
		v.verdict = "same"
	}
	return v
}

func compare(s *spec.Spec, base, change runs) (string, bool, error) {
	t := stats.NewTable("workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "change", "wins", "bound", "verdict")
	var notes []string
	bad := false
	for _, w := range sortedKeys(base) {
		if _, ok := change[w]; !ok {
			notes = append(notes, fmt.Sprintf("%s: no change runs", w))
			continue
		}
		for side, rs := range map[string]map[string]spec.Result{"base": base[w], "change": change[w]} {
			for f, r := range rs {
				if !r.Correct || r.Failed > 0 {
					notes = append(notes, fmt.Sprintf("%s %s: %d of %d operations failed", side, f, r.Failed, r.Attempted))
					bad = true
				}
			}
		}
		for _, m := range s.EndToEnd {
			if m.Bound == nil {
				return "", false, fmt.Errorf("end-to-end metric %s has no bound", m.Name)
			}
			b, err := values(base[w], m.Name)
			if err != nil {
				return "", false, err
			}
			c, err := values(change[w], m.Name)
			if err != nil {
				return "", false, err
			}
			var pairs [][2]float64
			for _, f := range sortedKeys(base[w]) {
				if cr, ok := change[w][f]; ok {
					pairs = append(pairs, [2]float64{base[w][f].Metrics[m.Name].Value, cr.Metrics[m.Name].Value})
				}
			}
			v := judge(b, c, pairs, *m.Bound, m.Better == "higher")
			bad = bad || v.verdict == "regression"
			t.AddRow(w, m.Name, quartiles(b), quartiles(c), fmt.Sprintf("%+.1f%%", 100*v.worse),
				fmt.Sprintf("%d/%d", v.won, len(pairs)), fmt.Sprintf("%.0f%%", 100**m.Bound), v.verdict)
		}
	}
	for w := range change {
		if _, ok := base[w]; !ok {
			notes = append(notes, fmt.Sprintf("%s: no base runs", w))
		}
	}
	sort.Strings(notes)
	out := t.String() + "change: the median's change, positive when worse\n"
	if len(notes) > 0 {
		out += strings.Join(notes, "\n") + "\n"
	}
	return out, bad, nil
}

func quartiles(xs []float64) string {
	q1, med, q3 := spec.Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

// values returns one metric of every run of a workload, in file-name order.
func values(rs map[string]spec.Result, metric string) ([]float64, error) {
	var out []float64
	for _, f := range sortedKeys(rs) {
		v, ok := rs[f].Metrics[metric]
		if !ok {
			return nil, fmt.Errorf("%s has no metric %s; compare takes untraced runs", f, metric)
		}
		out = append(out, v.Value)
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
