// Package geom provides the axis-aligned boxes and bounding spheres used by
// the octree and the multipole acceptance criteria.
package geom

import (
	"math"

	"treecode/internal/vec"
)

// AABB is an axis-aligned bounding box given by its two extreme corners.
type AABB struct {
	Lo, Hi vec.V3
}

// EmptyAABB returns a box that contains nothing; extending it with any point
// yields a degenerate box at that point.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Lo: vec.V3{X: inf, Y: inf, Z: inf}, Hi: vec.V3{X: -inf, Y: -inf, Z: -inf}}
}

// Extend grows b so that it contains p.
func (b AABB) Extend(p vec.V3) AABB {
	return AABB{Lo: b.Lo.Min(p), Hi: b.Hi.Max(p)}
}

// Union returns the smallest box containing both b and c.
func (b AABB) Union(c AABB) AABB {
	return AABB{Lo: b.Lo.Min(c.Lo), Hi: b.Hi.Max(c.Hi)}
}

// Center returns the midpoint of the box.
func (b AABB) Center() vec.V3 { return vec.Lerp(b.Lo, b.Hi, 0.5) }

// Size returns the edge lengths of the box.
func (b AABB) Size() vec.V3 { return b.Hi.Sub(b.Lo) }

// MaxDim returns the longest edge length (the "dimension of the box" in the
// paper's alpha-criterion).
func (b AABB) MaxDim() float64 { return b.Size().MaxComponent() }

// HalfDiagonal is the distance from the center to a corner, i.e. the radius
// of the smallest sphere centered at Center() that encloses the box.
func (b AABB) HalfDiagonal() float64 { return b.Size().Norm() / 2 }

// MaxDist returns the largest distance from p to any point of the closed
// box — the farthest-corner distance, i.e. the radius of the smallest
// sphere centered at p that contains the whole box. Works for p inside or
// outside the box.
func (b AABB) MaxDist(p vec.V3) float64 {
	dx := math.Max(p.X-b.Lo.X, b.Hi.X-p.X)
	dy := math.Max(p.Y-b.Lo.Y, b.Hi.Y-p.Y)
	dz := math.Max(p.Z-b.Lo.Z, b.Hi.Z-p.Z)
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Contains reports whether p lies in the closed box.
func (b AABB) Contains(p vec.V3) bool {
	return p.X >= b.Lo.X && p.X <= b.Hi.X &&
		p.Y >= b.Lo.Y && p.Y <= b.Hi.Y &&
		p.Z >= b.Lo.Z && p.Z <= b.Hi.Z
}

// ContainsBox reports whether c lies entirely inside b.
func (b AABB) ContainsBox(c AABB) bool { return b.Contains(c.Lo) && b.Contains(c.Hi) }

// Cube returns the smallest axis-aligned cube sharing b's center that
// contains b. Octrees are built over cubes so that children halve uniformly.
func (b AABB) Cube() AABB {
	c := b.Center()
	h := b.MaxDim() / 2
	d := vec.V3{X: h, Y: h, Z: h}
	return AABB{Lo: c.Sub(d), Hi: c.Add(d)}
}

// Inflate returns the box scaled by factor f about its center. Building an
// octree over a cube inflated by a hair above 1 guards against the rounding
// in Cube() excluding an extreme point by one ulp.
func (b AABB) Inflate(f float64) AABB {
	c := b.Center()
	h := b.Size().Scale(f / 2)
	return AABB{Lo: c.Sub(h), Hi: c.Add(h)}
}

// Octant returns the i-th child cube (i in 0..7) of a cubic box. Bit 0 of i
// selects the upper half in X, bit 1 in Y, bit 2 in Z.
func (b AABB) Octant(i int) AABB {
	c := b.Center()
	child := AABB{Lo: b.Lo, Hi: c}
	if i&1 != 0 {
		child.Lo.X = c.X
		child.Hi.X = b.Hi.X
	}
	if i&2 != 0 {
		child.Lo.Y = c.Y
		child.Hi.Y = b.Hi.Y
	}
	if i&4 != 0 {
		child.Lo.Z = c.Z
		child.Hi.Z = b.Hi.Z
	}
	return child
}

// OctantIndex returns which octant of the cubic box b the point p falls in,
// consistent with Octant.
func (b AABB) OctantIndex(p vec.V3) int {
	c := b.Center()
	i := 0
	if p.X >= c.X {
		i |= 1
	}
	if p.Y >= c.Y {
		i |= 2
	}
	if p.Z >= c.Z {
		i |= 4
	}
	return i
}

// Bound returns the bounding box of a point set.
func Bound(pts []vec.V3) AABB {
	b := EmptyAABB()
	for _, p := range pts {
		b = b.Extend(p)
	}
	return b
}

// Sphere is a center/radius pair; clusters are summarized by the smallest
// sphere about the expansion center that contains all their particles.
type Sphere struct {
	Center vec.V3
	Radius float64
}

// Contains reports whether p is inside the closed sphere.
func (s Sphere) Contains(p vec.V3) bool { return s.Center.Dist2(p) <= s.Radius*s.Radius }
