package geom

import (
	"math"
	"math/rand"
	"testing"

	"treecode/internal/vec"
)

func TestEmptyAABB(t *testing.T) {
	b := EmptyAABB()
	p := vec.V3{X: 1, Y: 2, Z: 3}
	if b.Contains(p) || b.Contains(vec.V3{}) {
		t.Fatal("EmptyAABB should contain no point")
	}
	b = b.Extend(p)
	if b.Lo != p || b.Hi != p {
		t.Fatalf("degenerate box expected, got %+v", b)
	}
	if !b.Contains(p) {
		t.Fatal("degenerate box should contain its point")
	}
}

func TestExtendContains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := EmptyAABB()
	var pts []vec.V3
	for i := 0; i < 200; i++ {
		p := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		pts = append(pts, p)
		b = b.Extend(p)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Fatalf("box %+v does not contain %+v", b, p)
		}
	}
	if got := Bound(pts); got != b {
		t.Fatalf("Bound mismatch: %+v vs %+v", got, b)
	}
}

func TestCenterSize(t *testing.T) {
	b := AABB{Lo: vec.V3{X: -1, Y: 0, Z: 2}, Hi: vec.V3{X: 3, Y: 2, Z: 6}}
	if got := b.Center(); got != (vec.V3{X: 1, Y: 1, Z: 4}) {
		t.Errorf("Center = %v", got)
	}
	if got := b.Size(); got != (vec.V3{X: 4, Y: 2, Z: 4}) {
		t.Errorf("Size = %v", got)
	}
	if got := b.MaxDim(); got != 4 {
		t.Errorf("MaxDim = %v", got)
	}
	want := math.Sqrt(16+4+16) / 2
	if got := b.HalfDiagonal(); math.Abs(got-want) > 1e-14 {
		t.Errorf("HalfDiagonal = %v, want %v", got, want)
	}
}

func TestCube(t *testing.T) {
	b := AABB{Lo: vec.V3{}, Hi: vec.V3{X: 4, Y: 2, Z: 1}}
	c := b.Cube()
	s := c.Size()
	if s.X != s.Y || s.Y != s.Z || s.X != 4 {
		t.Fatalf("Cube size = %v", s)
	}
	if c.Center() != b.Center() {
		t.Fatal("Cube should share center")
	}
	if !c.ContainsBox(b) {
		t.Fatal("Cube should contain the original box")
	}
}

func TestOctants(t *testing.T) {
	b := AABB{Lo: vec.V3{}, Hi: vec.V3{X: 2, Y: 2, Z: 2}}
	// Octants tile the cube: volumes sum and children are disjoint by interiors.
	var vol float64
	for i := 0; i < 8; i++ {
		o := b.Octant(i)
		s := o.Size()
		vol += s.X * s.Y * s.Z
		if !b.ContainsBox(o) {
			t.Fatalf("octant %d escapes parent", i)
		}
	}
	if math.Abs(vol-8) > 1e-12 {
		t.Fatalf("octant volumes sum to %v, want 8", vol)
	}
	// OctantIndex is consistent with Octant.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		p := vec.V3{X: 2 * rng.Float64(), Y: 2 * rng.Float64(), Z: 2 * rng.Float64()}
		idx := b.OctantIndex(p)
		if !b.Octant(idx).Contains(p) {
			t.Fatalf("point %v assigned to octant %d which does not contain it", p, idx)
		}
	}
}

func TestUnion(t *testing.T) {
	a := AABB{Lo: vec.V3{X: 0, Y: 0, Z: 0}, Hi: vec.V3{X: 1, Y: 1, Z: 1}}
	b := AABB{Lo: vec.V3{X: 2, Y: -1, Z: 0.5}, Hi: vec.V3{X: 3, Y: 0.5, Z: 2}}
	u := a.Union(b)
	if !u.ContainsBox(a) || !u.ContainsBox(b) {
		t.Fatal("union must contain both")
	}
	if u.Lo != (vec.V3{X: 0, Y: -1, Z: 0}) || u.Hi != (vec.V3{X: 3, Y: 1, Z: 2}) {
		t.Fatalf("union = %+v", u)
	}
}

func TestInflate(t *testing.T) {
	b := AABB{Lo: vec.V3{X: -1, Y: -2, Z: 0}, Hi: vec.V3{X: 1, Y: 2, Z: 4}}
	g := b.Inflate(2)
	if g.Center() != b.Center() {
		t.Fatal("Inflate must preserve the center")
	}
	if got := g.Size(); got != (vec.V3{X: 4, Y: 8, Z: 8}) {
		t.Fatalf("Inflate size = %v", got)
	}
	if !g.ContainsBox(b) {
		t.Fatal("inflated box must contain the original")
	}
	// Factor 1 is the identity up to rounding.
	id := b.Inflate(1)
	if id.Lo.Dist(b.Lo) > 1e-15 || id.Hi.Dist(b.Hi) > 1e-15 {
		t.Fatal("Inflate(1) changed the box")
	}
}

func TestSphereContains(t *testing.T) {
	s := Sphere{Center: vec.V3{X: 1, Y: 1, Z: 1}, Radius: 2}
	if !s.Contains(vec.V3{X: 1, Y: 1, Z: 3}) {
		t.Error("boundary point should be contained")
	}
	if s.Contains(vec.V3{X: 1, Y: 1, Z: 3.0001}) {
		t.Error("outside point contained")
	}
}
