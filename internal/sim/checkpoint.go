package sim

import (
	"encoding/gob"
	"fmt"
	"io"

	"treecode/internal/points"
	"treecode/internal/vec"
)

// checkpoint is the serialized form of a simulation. Only plain data is
// stored; the treecode is rebuilt on restore (it is derived state).
type checkpoint struct {
	Version   int
	Steps     int
	Dt        float64
	Soften    float64
	Particles []points.Particle
	Vel       []vec.V3

	// Version 2 adds the hierarchical block-timestep state, so a restored
	// block-mode simulation continues bit for bit instead of paying a
	// re-seeding force evaluation: the per-particle rung assignments, the
	// cached per-particle accelerations from each particle's most recent
	// evaluation, and the substep phase within the macro step (always 0
	// today — Step only returns at macro boundaries, where every rung is
	// synchronized — but stored so a future intra-macro checkpoint remains
	// a data change, not a format change). Empty in non-block runs and in
	// version-1 documents; Load treats that as "re-seed on first step".
	Rungs      []int
	BlockAcc   []vec.V3
	BlockPhase int
}

const checkpointVersion = 2

// Save writes the simulation state (positions, masses, velocities, step
// counter, and the physical parameters) with encoding/gob. The treecode
// configuration is not stored: pass it to Load, since evaluation settings
// are a property of how you continue, not of the physical state.
func (s *Simulator) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(checkpoint{
		Version:   checkpointVersion,
		Steps:     s.Steps,
		Dt:        s.Cfg.Dt,
		Soften:    s.Cfg.Soften,
		Particles: s.State.Set.Particles,
		Vel:       s.State.Vel,
		Rungs:     s.rung,
		BlockAcc:  s.blockAcc,
	})
}

// Load restores a simulation saved with Save, attaching the given force
// configuration for subsequent steps. Version-1 checkpoints (pre
// block-timestep) load with empty rung state; a block-mode continuation
// then re-seeds its rungs on the first step, exactly like a fresh run.
// Rung state is untrusted input: a non-empty rung or acceleration table
// whose length is not the particle count is an error, and so, when the
// continuing configuration runs block timesteps, is any rung outside
// [0, MaxRungs-1].
func Load(r io.Reader, force Config) (*Simulator, error) {
	var c checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	if c.Version < 1 || c.Version > checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, want 1..%d", c.Version, checkpointVersion)
	}
	cfg := force
	cfg.Dt = c.Dt
	cfg.Soften = c.Soften
	sim, err := New(State{Set: &points.Set{Particles: c.Particles}, Vel: c.Vel}, cfg)
	if err != nil {
		return nil, err
	}
	n := len(c.Particles)
	if len(c.Rungs) > 0 && len(c.Rungs) != n {
		return nil, fmt.Errorf("sim: checkpoint has %d rungs for %d particles", len(c.Rungs), n)
	}
	if len(c.BlockAcc) > 0 && len(c.BlockAcc) != n {
		return nil, fmt.Errorf("sim: checkpoint has %d block accelerations for %d particles", len(c.BlockAcc), n)
	}
	if rungs := cfg.Block.MaxRungs; rungs > 0 {
		for i, r := range c.Rungs {
			if r < 0 || r >= rungs {
				return nil, fmt.Errorf("sim: checkpoint rung %d of particle %d outside [0,%d]", r, i, rungs-1)
			}
		}
	}
	sim.Steps = c.Steps
	if len(c.Rungs) == n && len(c.BlockAcc) == n {
		sim.rung = c.Rungs
		sim.blockAcc = c.BlockAcc
	}
	return sim, nil
}
