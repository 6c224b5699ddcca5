// Package points defines the particle set abstraction and the deterministic
// workload generators used by the paper's experiments: uniform random
// distributions ("structured" in the paper's terminology, since the charge
// density is uniform), Gaussian and overlapped-Gaussian distributions
// ("unstructured"), plus a few extras (grid, spherical shell, Plummer model)
// used by the examples.
package points

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"treecode/internal/geom"
	"treecode/internal/vec"
)

// Particle is a point charge (or point mass; the kernel is the same).
type Particle struct {
	Pos    vec.V3
	Charge float64
}

// Set is a collection of particles.
type Set struct {
	Particles []Particle
}

// N returns the number of particles.
func (s *Set) N() int { return len(s.Particles) }

// Positions returns a freshly allocated slice of the particle positions.
func (s *Set) Positions() []vec.V3 {
	out := make([]vec.V3, len(s.Particles))
	for i, p := range s.Particles {
		out[i] = p.Pos
	}
	return out
}

// TotalCharge returns the sum of charges.
func (s *Set) TotalCharge() float64 {
	var q float64
	for _, p := range s.Particles {
		q += p.Charge
	}
	return q
}

// TotalAbsCharge returns the sum of |q_i| — the quantity A in the paper's
// error bounds.
func (s *Set) TotalAbsCharge() float64 {
	var a float64
	for _, p := range s.Particles {
		a += math.Abs(p.Charge)
	}
	return a
}

// Bounds returns the bounding box of the particle positions.
func (s *Set) Bounds() geom.AABB {
	b := geom.EmptyAABB()
	for _, p := range s.Particles {
		b = b.Extend(p.Pos)
	}
	return b
}

// ErrNonFinite reports a particle whose position or charge is NaN or
// infinite. Every quantity the treecode derives from such a particle —
// bounding box, charge moments, expansions — is garbage, so construction
// rejects it instead.
var ErrNonFinite = errors.New("non-finite particle position or charge")

// CheckFinite returns an error wrapping ErrNonFinite that names the first
// particle with a NaN or infinite coordinate or charge, or nil.
func (s *Set) CheckFinite() error {
	for i, p := range s.Particles {
		if !finite(p.Pos.X) || !finite(p.Pos.Y) || !finite(p.Pos.Z) || !finite(p.Charge) {
			return fmt.Errorf("%w: particle %d at %v with charge %v", ErrNonFinite, i, p.Pos, p.Charge)
		}
	}
	return nil
}

// CheckFinitePositions returns an error wrapping ErrNonFinite that names the
// first position with a NaN or infinite coordinate, or nil. Callers that
// move an existing structure to new positions run it before the first
// write, so a rejected move leaves that structure as it was.
func CheckFinitePositions(pos []vec.V3) error {
	for i, p := range pos {
		if !finite(p.X) || !finite(p.Y) || !finite(p.Z) {
			return fmt.Errorf("%w: particle %d at %v", ErrNonFinite, i, p)
		}
	}
	return nil
}

// CheckFiniteCharges returns an error wrapping ErrNonFinite that names the
// first NaN or infinite charge, or nil.
func CheckFiniteCharges(q []float64) error {
	for i, c := range q {
		if !finite(c) {
			return fmt.Errorf("%w: particle %d with charge %v", ErrNonFinite, i, c)
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{Particles: make([]Particle, len(s.Particles))}
	copy(c.Particles, s.Particles)
	return c
}

// Distribution identifies a workload generator.
type Distribution string

// Distributions used by the paper's experiments and our examples.
const (
	Uniform    Distribution = "uniform"    // uniform random in the unit cube (paper: "structured")
	Gaussian   Distribution = "gaussian"   // single 3-D Gaussian blob (paper: "irregular")
	MultiGauss Distribution = "multigauss" // overlapped Gaussians (paper: "overlapped Gaussian")
	Grid       Distribution = "grid"       // regular lattice
	Shell      Distribution = "shell"      // points on a sphere surface
	Plummer    Distribution = "plummer"    // Plummer model (astrophysics example)
)

// AllDistributions lists every supported generator.
func AllDistributions() []Distribution {
	return []Distribution{Uniform, Gaussian, MultiGauss, Grid, Shell, Plummer}
}

// Generate creates n particles of the given distribution with unit positive
// charges, deterministically from seed. Charges are all +1/n scaled by
// chargeScale so that the total charge equals chargeScale; the paper's
// analysis is driven by net cluster charge, and protein-like systems have
// uniform-sign charge density, which this models.
func Generate(dist Distribution, n int, seed int64) (*Set, error) {
	return GenerateCharged(dist, n, seed, 1, false)
}

// GenerateCharged creates n particles with total absolute charge totalAbs.
// If mixedSign is true, charges alternate in sign (zero-mean systems); the
// paper's worst case is uniform-sign charge, the default.
func GenerateCharged(dist Distribution, n int, seed int64, totalAbs float64, mixedSign bool) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("points: n must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V3, 0, n)
	switch dist {
	case Uniform:
		for i := 0; i < n; i++ {
			pos = append(pos, vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
		}
	case Gaussian:
		for i := 0; i < n; i++ {
			pos = append(pos, gaussPoint(rng, vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, 0.12))
		}
	case MultiGauss:
		centers := []vec.V3{
			{X: 0.25, Y: 0.3, Z: 0.3},
			{X: 0.7, Y: 0.65, Z: 0.4},
			{X: 0.45, Y: 0.75, Z: 0.75},
			{X: 0.8, Y: 0.2, Z: 0.8},
		}
		sigmas := []float64{0.08, 0.1, 0.06, 0.12}
		for i := 0; i < n; i++ {
			k := rng.Intn(len(centers))
			pos = append(pos, gaussPoint(rng, centers[k], sigmas[k]))
		}
	case Grid:
		side := int(math.Ceil(math.Cbrt(float64(n))))
		h := 1.0 / float64(side)
		for i := 0; len(pos) < n && i < side; i++ {
			for j := 0; len(pos) < n && j < side; j++ {
				for k := 0; len(pos) < n && k < side; k++ {
					pos = append(pos, vec.V3{
						X: (float64(i) + 0.5) * h,
						Y: (float64(j) + 0.5) * h,
						Z: (float64(k) + 0.5) * h,
					})
				}
			}
		}
	case Shell:
		for i := 0; i < n; i++ {
			u := 2*rng.Float64() - 1
			phi := 2 * math.Pi * rng.Float64()
			s := math.Sqrt(math.Max(0, 1-u*u)) // clamp: u*u can round above 1
			p := vec.V3{X: s * math.Cos(phi), Y: s * math.Sin(phi), Z: u}
			pos = append(pos, p.Scale(0.5).Add(vec.V3{X: 0.5, Y: 0.5, Z: 0.5}))
		}
	case Plummer:
		for i := 0; i < n; i++ {
			pos = append(pos, plummerPoint(rng))
		}
	default:
		return nil, fmt.Errorf("points: unknown distribution %q", dist)
	}

	q := totalAbs / float64(n)
	set := &Set{Particles: make([]Particle, n)}
	for i := range set.Particles {
		qi := q
		if mixedSign && i%2 == 1 {
			qi = -q
		}
		set.Particles[i] = Particle{Pos: pos[i], Charge: qi}
	}
	return set, nil
}

// gaussPoint draws from an isotropic Gaussian, clamped to the unit cube so
// all workloads share a common domain.
func gaussPoint(rng *rand.Rand, center vec.V3, sigma float64) vec.V3 {
	for {
		p := vec.V3{
			X: center.X + sigma*rng.NormFloat64(),
			Y: center.Y + sigma*rng.NormFloat64(),
			Z: center.Z + sigma*rng.NormFloat64(),
		}
		if p.X >= 0 && p.X <= 1 && p.Y >= 0 && p.Y <= 1 && p.Z >= 0 && p.Z <= 1 {
			return p
		}
	}
}

// plummerPoint draws a radius from the Plummer density (scale radius chosen
// so that most mass falls inside the unit cube) and clamps outliers.
func plummerPoint(rng *rand.Rand) vec.V3 {
	const scale = 0.08
	for {
		m := rng.Float64()
		if m <= 0 {
			continue // m = 0 would put the sample at r = 0 with infinite density weight
		}
		// m in (0,1) makes m^(-2/3) >= 1; the clamp guards the boundary
		// case where the subtraction rounds negative. A zero denominator
		// (m rounding to 1) would put the sample at infinity — resample.
		den := math.Sqrt(math.Max(0, math.Pow(m, -2.0/3.0)-1))
		if den == 0 {
			continue
		}
		r := scale / den
		if r > 0.45 {
			continue
		}
		u := 2*rng.Float64() - 1
		phi := 2 * math.Pi * rng.Float64()
		s := math.Sqrt(math.Max(0, 1-u*u)) // clamp: u*u can round above 1
		dir := vec.V3{X: s * math.Cos(phi), Y: s * math.Sin(phi), Z: u}
		return dir.Scale(r).Add(vec.V3{X: 0.5, Y: 0.5, Z: 0.5})
	}
}
