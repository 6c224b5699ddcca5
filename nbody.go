package treecode

import (
	"treecode/internal/points"
	"treecode/internal/sim"
)

// NBody wraps the leapfrog integrator driving treecode forces — the
// n-body simulation loop of the astrophysics applications motivating the
// paper. Charges are interpreted as masses; gravity is attractive with
// G = 1.
type NBody struct {
	s *sim.Simulator
}

// NBodyConfig configures the integrator.
type NBodyConfig struct {
	// Dt is the leapfrog timestep (required).
	Dt float64
	// Force configures the treecode used each step; its Soften is the
	// Plummer softening length of the near-field pairs (0 disables it).
	Force Config
}

// NewNBody creates a simulation from particles (masses in Charge) and
// matching initial velocities.
func NewNBody(particles []Particle, velocities []Vec3, cfg NBodyConfig) (*NBody, error) {
	s, err := sim.New(sim.State{Set: &points.Set{Particles: particles}, Vel: velocities}, sim.Config{
		Dt:    cfg.Dt,
		Force: cfg.Force,
	})
	if err != nil {
		return nil, err
	}
	return &NBody{s: s}, nil
}

// Step advances one kick-drift-kick timestep.
func (n *NBody) Step() error { return n.s.Step() }

// Run advances k timesteps.
func (n *NBody) Run(k int) error { return n.s.Run(k) }

// Particles returns the live particle slice (positions update in place).
// Treat it as read-only: Step reuses each particle's last acceleration
// for its opening kick and never rereads masses, so a position or mass
// edited between steps does not reach the forces.
func (n *NBody) Particles() []Particle { return n.s.State.Set.Particles }

// Velocities returns the live velocity slice.
func (n *NBody) Velocities() []Vec3 { return n.s.State.Vel }

// Energy returns kinetic, potential, and total energy (O(n^2) diagnostic).
func (n *NBody) Energy() (kin, pot, total float64) { return n.s.Energy() }

// Momentum returns the total linear momentum.
func (n *NBody) Momentum() Vec3 { return n.s.Momentum() }

// Steps returns the number of completed timesteps.
func (n *NBody) Steps() int { return n.s.Steps }
