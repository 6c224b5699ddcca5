package meshio

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"treecode/internal/mesh"
	"treecode/internal/vec"
)

func TestRoundTrip(t *testing.T) {
	orig := mesh.Sphere(2, 1.5, vec.V3{X: 1})
	var buf bytes.Buffer
	if err := WriteOFF(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadOFF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVerts() != orig.NumVerts() || back.NumTris() != orig.NumTris() {
		t.Fatalf("counts changed: %d/%d vs %d/%d",
			back.NumVerts(), back.NumTris(), orig.NumVerts(), orig.NumTris())
	}
	for i := range orig.Verts {
		if orig.Verts[i].Dist(back.Verts[i]) > 1e-15 {
			t.Fatalf("vertex %d changed", i)
		}
	}
	for i := range orig.Tris {
		if orig.Tris[i] != back.Tris[i] {
			t.Fatalf("triangle %d changed", i)
		}
	}
}

func TestReadWithCommentsAndBlankLines(t *testing.T) {
	src := `OFF
# a comment
3 1 0

0 0 0   # origin
1 0 0
0 1 0
3 0 1 2
`
	m, err := ReadOFF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVerts() != 3 || m.NumTris() != 1 {
		t.Fatalf("parsed %d/%d", m.NumVerts(), m.NumTris())
	}
}

func TestReadHeaderlessOFF(t *testing.T) {
	// Some files skip the "OFF" keyword.
	src := "3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
	m, err := ReadOFF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTris() != 1 {
		t.Fatal("headerless parse failed")
	}
}

func TestQuadFanTriangulation(t *testing.T) {
	src := `OFF
4 1 0
0 0 0
1 0 0
1 1 0.1
0 1 0
4 0 1 2 3
`
	m, err := ReadOFF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTris() != 2 {
		t.Fatalf("quad should become 2 triangles, got %d", m.NumTris())
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"only header":      "OFF\n",
		"bad counts":       "OFF\nx y z\n",
		"missing vertices": "OFF\n3 1 0\n0 0 0\n",
		"bad vertex":       "OFF\n1 0 0\na b c\n",
		"bad face index":   "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99\n",
		"degenerate face":  "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n",
		"short face":       "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n",
	}
	for name, src := range cases {
		if _, err := ReadOFF(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestReadHostileCounts: the header's counts are untrusted. A count no
// slice can hold, a count far beyond the input's lines, and a face arity
// that overflows the field check must each return an error, without a
// panic and without allocating for the claimed size.
func TestReadHostileCounts(t *testing.T) {
	cases := map[string]string{
		"vertex count past any slice": "OFF\n9223372036854775807 0 0",
		"vertex count past the input": "OFF\n400000000 0 0\n0 0 0\n",
		"face arity past any slice":   "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n9223372036854775807 0 1 2\n",
	}
	for name, src := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadOFF(strings.NewReader(src))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: expected error", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: allocated %d bytes", name, got)
		}
	}
}

// FuzzReadOFF feeds arbitrary bytes to the reader: it must never panic, and
// a mesh it accepts must pass Validate and come back unchanged, vertex bits
// and triangles, through WriteOFF and a second read.
func FuzzReadOFF(f *testing.F) {
	var sphere bytes.Buffer
	if err := WriteOFF(&sphere, mesh.Sphere(1, 1, vec.V3{})); err != nil {
		f.Fatal(err)
	}
	f.Add(sphere.String())
	f.Add("OFF\n# a comment\n3 1 0\n\n0 0 0   # origin\n1 0 0\n0 1 0\n3 0 1 2\n")
	f.Add("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
	f.Add("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
	f.Add("OFF\n9223372036854775807 0 0")
	f.Add("OFF\n400000000 0 0\n0 0 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ReadOFF(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted mesh fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteOFF(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, err := ReadOFF(&buf)
		if err != nil {
			t.Fatalf("written mesh does not read back: %v", err)
		}
		if back.NumVerts() != m.NumVerts() || back.NumTris() != m.NumTris() {
			t.Fatalf("round trip changed counts %d/%d to %d/%d", m.NumVerts(), m.NumTris(), back.NumVerts(), back.NumTris())
		}
		for i, v := range m.Verts {
			w := back.Verts[i]
			for _, c := range [][2]float64{{v.X, w.X}, {v.Y, w.Y}, {v.Z, w.Z}} {
				if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
					t.Fatalf("vertex %d changed from %v to %v", i, v, w)
				}
			}
		}
		for i := range m.Tris {
			if m.Tris[i] != back.Tris[i] {
				t.Fatalf("triangle %d changed from %v to %v", i, m.Tris[i], back.Tris[i])
			}
		}
	})
}
