package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"treecode/internal/points"
	"treecode/internal/vec"
)

// raceSet builds a small deterministic workload for the -race exercises:
// small enough to stay fast under the race detector, large enough that the
// parallel chunk scheduler actually hands work to several goroutines.
func raceSet(t *testing.T) *points.Set {
	t.Helper()
	set, err := points.Generate(points.Uniform, 600, 11)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestPotentialsRace exercises one evaluator from concurrent goroutines,
// each running a multi-worker evaluation: Potentials, and PotentialsAt at
// off-particle targets. Run with -race; the results must also be
// bit-identical to a one-worker evaluator's, because workers only write
// disjoint output slots.
func TestPotentialsRace(t *testing.T) {
	set := raceSet(t)
	cfg := Config{Method: Adaptive, Degree: 3, Alpha: 0.5, Workers: 4}
	e, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]vec.V3, 600)
	rng := rand.New(rand.NewSource(5))
	for i := range targets {
		targets[i] = vec.V3{X: 1.2*rng.Float64() - 0.1, Y: 1.2*rng.Float64() - 0.1, Z: 1.2*rng.Float64() - 0.1}
	}
	cfg.Workers = 1
	serial, err := New(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := serial.Potentials()
	refAt, _ := serial.PotentialsAt(targets)

	const callers = 4
	results := make([][]float64, callers)
	resultsAt := make([][]float64, callers)
	var wg sync.WaitGroup
	wg.Add(2 * callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			phi, _ := e.Potentials()
			results[c] = phi
		}(c)
		go func(c int) {
			defer wg.Done()
			phi, _ := e.PotentialsAt(targets)
			resultsAt[c] = phi
		}(c)
	}
	wg.Wait()
	check := func(what string, got [][]float64, want []float64) {
		for c, phi := range got {
			if len(phi) != len(want) {
				t.Fatalf("%s caller %d: %d potentials, want %d", what, c, len(phi), len(want))
			}
			for i := range phi {
				if math.Float64bits(phi[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s caller %d: phi[%d] = %g differs from serial reference %g", what, c, i, phi[i], want[i])
				}
			}
		}
	}
	check("Potentials", results, ref)
	check("PotentialsAt", resultsAt, refAt)
}

// TestFieldsRace exercises concurrent Fields evaluations on one evaluator.
func TestFieldsRace(t *testing.T) {
	set := raceSet(t)
	e, err := New(set, Config{Method: Original, Degree: 3, Alpha: 0.5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	for c := 0; c < 3; c++ {
		go func() {
			defer wg.Done()
			phi, field, _ := e.Fields()
			if len(phi) != set.N() || len(field) != set.N() {
				t.Errorf("short result: %d/%d", len(phi), len(field))
			}
		}()
	}
	wg.Wait()
}
