package sim

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"treecode/internal/core"
	"treecode/internal/points"
	"treecode/internal/vec"
)

func TestCheckpointRoundTrip(t *testing.T) {
	set, _ := points.Generate(points.Plummer, 200, 1)
	// RebuildEvery pins bitwise continuation: a restored simulator has no
	// persistent engine to refit, so under RebuildAuto the original (which
	// refits) and the restored (which builds fresh) would legitimately
	// differ by summation-order ulps while agreeing to treecode accuracy.
	cfg := Config{Dt: 1e-3, Soften: 0.01, Force: core.Config{Degree: 4}, Rebuild: RebuildEvery}
	s, err := New(State{Set: set, Vel: make([]vec.V3, set.N())}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(3); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Steps != 3 {
		t.Fatalf("steps = %d", restored.Steps)
	}
	if restored.Cfg.Dt != 1e-3 || restored.Cfg.Soften != 0.01 {
		t.Fatal("physical parameters lost")
	}
	// Bit-identical state.
	for i := range s.State.Set.Particles {
		if s.State.Set.Particles[i] != restored.State.Set.Particles[i] {
			t.Fatalf("particle %d differs", i)
		}
		if s.State.Vel[i] != restored.State.Vel[i] {
			t.Fatalf("velocity %d differs", i)
		}
	}
	// And the continuation is bit-identical too.
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(2); err != nil {
		t.Fatal(err)
	}
	for i := range s.State.Set.Particles {
		if s.State.Set.Particles[i].Pos != restored.State.Set.Particles[i].Pos {
			t.Fatalf("continuation diverged at particle %d", i)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("garbage"), Config{}); err == nil {
		t.Error("garbage should fail to load")
	}
	// Wrong version.
	var buf bytes.Buffer
	set, _ := points.Generate(points.Uniform, 5, 2)
	s, _ := New(State{Set: set, Vel: make([]vec.V3, 5)}, Config{Dt: 0.1})
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the version by re-encoding through the struct directly is
	// awkward with gob; instead check that truncated data fails.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc), Config{}); err == nil {
		t.Error("truncated checkpoint should fail")
	}
}

// TestLoadRejectsCorruptRungState feeds Load hand-encoded version-2
// checkpoints. Out-of-range rungs used to index past the rung tables on
// the first Step, and a short rung table was silently dropped; both are
// now load errors. Empty rung state still loads and re-seeds, and a valid
// table continues.
func TestLoadRejectsCorruptRungState(t *testing.T) {
	set, _ := points.Generate(points.Plummer, 64, 4)
	n := set.N()
	rungs := func(bad int) []int {
		r := make([]int, n)
		for i := range r {
			r[i] = i % 3
		}
		r[5] = bad
		return r
	}
	acc := make([]vec.V3, n)
	for i := range acc {
		acc[i] = vec.V3{X: 1, Y: -1, Z: 0.5}
	}
	accWith := func(bad vec.V3) []vec.V3 {
		a := append([]vec.V3(nil), acc...)
		a[7] = bad
		return a
	}
	nan, inf := math.NaN(), math.Inf(1)
	velWith := func(bad vec.V3) []vec.V3 {
		v := make([]vec.V3, n)
		v[2] = bad
		return v
	}
	for _, tc := range []struct {
		name     string
		rungs    []int
		acc      []vec.V3
		wantLoad bool
		edit     func(*checkpoint, *Config) // corrupts the rest of the state
	}{
		{"rung above MaxRungs-1", rungs(5), acc, false, nil},
		{"negative rung", rungs(-1), acc, false, nil},
		{"rung table one short", rungs(0)[:n-1], acc, false, nil},
		{"acceleration table one short", rungs(0), acc[:n-1], false, nil},
		{"NaN block acceleration", rungs(0), accWith(vec.V3{Y: nan}), false, nil},
		{"+Inf block acceleration", rungs(0), accWith(vec.V3{Z: inf}), false, nil},
		{"NaN dt", rungs(0), acc, false, func(c *checkpoint, _ *Config) { c.Dt = nan }},
		{"+Inf dt", rungs(0), acc, false, func(c *checkpoint, _ *Config) { c.Dt = inf }},
		{"NaN softening", rungs(0), acc, false, func(c *checkpoint, _ *Config) { c.Soften = nan }},
		{"negative softening", rungs(0), acc, false, func(c *checkpoint, _ *Config) { c.Soften = -1 }},
		{"+Inf softening", rungs(0), acc, false, func(c *checkpoint, _ *Config) { c.Soften = inf }},
		{"NaN velocity", rungs(0), acc, false, func(c *checkpoint, _ *Config) { c.Vel = velWith(vec.V3{X: nan}) }},
		{"+Inf velocity", rungs(0), acc, false, func(c *checkpoint, _ *Config) { c.Vel = velWith(vec.V3{Z: -inf}) }},
		{"NaN block eta", rungs(0), acc, false, func(_ *checkpoint, f *Config) { f.Block.Eta = nan }},
		{"+Inf block eta", rungs(0), acc, false, func(_ *checkpoint, f *Config) { f.Block.Eta = inf }},
		{"empty rung state re-seeds", nil, nil, true, nil},
		{"valid rung state", rungs(2), acc, true, nil},
	} {
		c := checkpoint{
			Version: checkpointVersion, Steps: 4, Dt: 1e-3,
			Particles: set.Particles, Vel: make([]vec.V3, n),
			Rungs: tc.rungs, BlockAcc: tc.acc,
		}
		cfg := Config{Force: core.Config{Degree: 3}, Block: BlockConfig{MaxRungs: 3}}
		if tc.edit != nil {
			tc.edit(&c, &cfg)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c); err != nil {
			t.Fatal(err)
		}
		s, err := Load(&buf, cfg)
		if !tc.wantLoad {
			if err == nil {
				t.Errorf("%s: Load accepted the checkpoint", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := s.Step(); err != nil {
			t.Fatalf("%s: step after load: %v", tc.name, err)
		}
	}
}
