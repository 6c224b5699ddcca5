// Package vec provides the 3-D vector arithmetic used throughout the
// treecode: particle positions, expansion centers, field evaluation and
// geometric predicates. Everything is value-based and allocation-free.
package vec

import "math"

// V3 is a point or vector in R^3.
type V3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v V3) Scale(s float64) V3 { return V3{s * v.X, s * v.Y, s * v.Z} }

// Neg returns -v.
func (v V3) Neg() V3 { return V3{-v.X, -v.Y, -v.Z} }

// Dot returns the inner product v . w.
func (v V3) Dot(w V3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v x w.
func (v V3) Cross(w V3) V3 {
	return V3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v V3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v V3) Norm2() float64 { return v.Dot(v) }

// Dist returns |v - w|.
func (v V3) Dist(w V3) float64 { return v.Sub(w).Norm() }

// Dist2 returns |v - w|^2.
func (v V3) Dist2(w V3) float64 { return v.Sub(w).Norm2() }

// Normalize returns v/|v|. The zero vector is returned unchanged.
func (v V3) Normalize() V3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Min returns the component-wise minimum of v and w.
func (v V3) Min(w V3) V3 {
	return V3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v V3) Max(w V3) V3 {
	return V3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// MaxComponent returns the largest of the three components.
func (v V3) MaxComponent() float64 { return math.Max(v.X, math.Max(v.Y, v.Z)) }

// Spherical returns the spherical coordinates (r, theta, phi) of v,
// with theta the polar angle measured from +Z (0 <= theta <= pi) and
// phi the azimuth in (-pi, pi]. The origin maps to (0, 0, 0).
func (v V3) Spherical() (r, theta, phi float64) {
	r = v.Norm()
	if r == 0 {
		return 0, 0, 0
	}
	// Clamp the cosine: r is rounded, so |Z|/r can land just above 1.
	c := math.Min(1, math.Max(-1, v.Z/r))
	theta = math.Acos(c)
	phi = math.Atan2(v.Y, v.X)
	return r, theta, phi
}

// FromSpherical is the inverse of Spherical.
func FromSpherical(r, theta, phi float64) V3 {
	st, ct := math.Sincos(theta)
	sp, cp := math.Sincos(phi)
	return V3{r * st * cp, r * st * sp, r * ct}
}

// Lerp returns v + t*(w-v).
func Lerp(v, w V3, t float64) V3 { return v.Add(w.Sub(v).Scale(t)) }
