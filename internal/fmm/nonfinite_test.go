package fmm

import (
	"errors"
	"math"
	"testing"

	"treecode/internal/core"
	"treecode/internal/points"
)

// TestNonFiniteInputLeavesEngineIntact feeds the shared engine a NaN or
// infinite position (Update, UpdateFor) or charge (SetCharges) through the
// treecode in both eval modes and through the FMM. Each call must fail
// with points.ErrNonFinite before writing anything, so the next
// evaluation is bitwise the one before it.
func TestNonFiniteInputLeavesEngineIntact(t *testing.T) {
	set, err := points.Generate(points.Plummer, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	evaluators := []struct {
		name string
		new  func() (*core.Engine, func() []float64)
	}{
		{"core walk", func() (*core.Engine, func() []float64) {
			e, err := core.New(set, core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5, Workers: 2, Eval: core.EvalWalk})
			if err != nil {
				t.Fatal(err)
			}
			return &e.Engine, func() []float64 { phi, _ := e.Potentials(); return phi }
		}},
		{"core batched", func() (*core.Engine, func() []float64) {
			e, err := core.New(set, core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5, Workers: 2, Eval: core.EvalBatched})
			if err != nil {
				t.Fatal(err)
			}
			return &e.Engine, func() []float64 { phi, _ := e.Potentials(); return phi }
		}},
		{"fmm", func() (*core.Engine, func() []float64) {
			e, err := New(set, Config{Method: core.Original, Degree: 4, Alpha: 0.5, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			return &e.Engine, func() []float64 { phi, _ := e.Potentials(); return phi }
		}},
	}
	inactive := make([]bool, set.N())
	inactive[1] = true // the bad particle 0 is not in the active set
	calls := []struct {
		name string
		call func(g *core.Engine) error
	}{
		{"Update NaN position", func(g *core.Engine) error {
			pos := set.Positions()
			pos[0].Y = math.NaN()
			_, err := g.Update(pos)
			return err
		}},
		{"UpdateFor +Inf position outside the mask", func(g *core.Engine) error {
			pos := set.Positions()
			pos[0].X = math.Inf(1)
			_, err := g.UpdateFor(pos, inactive)
			return err
		}},
		{"SetCharges +Inf charge", func(g *core.Engine) error {
			q := make([]float64, set.N())
			for i := range q {
				q[i] = 1
			}
			q[7] = math.Inf(1)
			return g.SetCharges(q)
		}},
		{"SetCharges NaN charge", func(g *core.Engine) error {
			q := make([]float64, set.N())
			q[set.N()-1] = math.NaN()
			return g.SetCharges(q)
		}},
	}
	for _, ev := range evaluators {
		g, potentials := ev.new()
		want := potentials()
		for _, c := range calls {
			if err := c.call(g); !errors.Is(err, points.ErrNonFinite) {
				t.Fatalf("%s, %s: err = %v, want points.ErrNonFinite", ev.name, c.name, err)
			}
			got := potentials()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s, %s: potential %d changed to %v from %v", ev.name, c.name, i, got[i], want[i])
				}
			}
		}
	}
}
