// Package spec reads BENCHMARK.json, the description of the repository
// benchmark (its workloads, the end-to-end metrics with their regression
// bounds, and the per-layer metrics of the traced run), and the one-line
// JSON result each benchmark run prints. It also holds the quartile rule
// both the benchmark and the compare tool summarise samples with.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Metric is one metric of BENCHMARK.json. Bound is the share of the base
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Workload is one named set of inputs and the reason the benchmark runs it.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is the whole of BENCHMARK.json.
type Spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Load reads and decodes a BENCHMARK.json, rejecting unknown keys.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Value is one measured metric of a run.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object a benchmark run prints as its last line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Median returns the median of xs (NaN-free, non-empty).
func Median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule run-to-run spread is judged by. A single sample is its own
// quartiles.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), Median(s), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
