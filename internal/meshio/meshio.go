// Package meshio reads and writes triangle meshes in the OFF format (the
// plain-text format of the Princeton/GeomView tradition that most mesh
// repositories offer), so users can run the boundary-element solver on
// their own surfaces instead of the built-in generators.
//
// Only triangular faces are supported; polygonal faces with more than three
// vertices are fan-triangulated on read.
package meshio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"treecode/internal/mesh"
	"treecode/internal/vec"
)

// ReadOFF parses an OFF mesh.
func ReadOFF(r io.Reader) (*mesh.Mesh, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // lines up to 1 MB; the buffer grows to fit
	next := func() ([]string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = strings.TrimSpace(line[:i])
			}
			if line == "" {
				continue
			}
			return strings.Fields(line), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}

	tok, err := next()
	if err != nil {
		return nil, fmt.Errorf("meshio: empty input: %w", err)
	}
	// Header may be "OFF" alone or already the counts line.
	if len(tok) == 1 && strings.EqualFold(tok[0], "OFF") {
		tok, err = next()
		if err != nil {
			return nil, fmt.Errorf("meshio: missing counts: %w", err)
		}
	}
	if len(tok) < 3 {
		return nil, fmt.Errorf("meshio: malformed counts line %q", strings.Join(tok, " "))
	}
	nv, err1 := strconv.Atoi(tok[0])
	nf, err2 := strconv.Atoi(tok[1])
	if err1 != nil || err2 != nil || nv < 0 || nf < 0 {
		return nil, fmt.Errorf("meshio: bad counts %v", tok)
	}

	// The counts are untrusted: storage grows with the lines actually read,
	// so a huge count in a short input fails at end of input instead of
	// allocating for it.
	m := &mesh.Mesh{}
	for i := 0; i < nv; i++ {
		tok, err := next()
		if err != nil {
			return nil, fmt.Errorf("meshio: vertex %d: %w", i, err)
		}
		if len(tok) < 3 {
			return nil, fmt.Errorf("meshio: vertex %d has %d fields", i, len(tok))
		}
		var v vec.V3
		if v.X, err = strconv.ParseFloat(tok[0], 64); err != nil {
			return nil, fmt.Errorf("meshio: vertex %d: %w", i, err)
		}
		if v.Y, err = strconv.ParseFloat(tok[1], 64); err != nil {
			return nil, fmt.Errorf("meshio: vertex %d: %w", i, err)
		}
		if v.Z, err = strconv.ParseFloat(tok[2], 64); err != nil {
			return nil, fmt.Errorf("meshio: vertex %d: %w", i, err)
		}
		m.Verts = append(m.Verts, v)
	}
	for i := 0; i < nf; i++ {
		tok, err := next()
		if err != nil {
			return nil, fmt.Errorf("meshio: face %d: %w", i, err)
		}
		k, err := strconv.Atoi(tok[0])
		if err != nil || k < 3 || k > len(tok)-1 {
			return nil, fmt.Errorf("meshio: face %d malformed", i)
		}
		idx := make([]int, k)
		for j := 0; j < k; j++ {
			idx[j], err = strconv.Atoi(tok[1+j])
			if err != nil || idx[j] < 0 || idx[j] >= nv {
				return nil, fmt.Errorf("meshio: face %d vertex index %q invalid", i, tok[1+j])
			}
		}
		// Fan triangulation.
		for j := 1; j+1 < k; j++ {
			m.Tris = append(m.Tris, [3]int{idx[0], idx[j], idx[j+1]})
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("meshio: %w", err)
	}
	return m, nil
}

// WriteOFF writes the mesh in OFF format.
func WriteOFF(w io.Writer, m *mesh.Mesh) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "OFF")
	fmt.Fprintf(bw, "%d %d 0\n", m.NumVerts(), m.NumTris())
	for _, v := range m.Verts {
		fmt.Fprintf(bw, "%.17g %.17g %.17g\n", v.X, v.Y, v.Z)
	}
	for _, t := range m.Tris {
		fmt.Fprintf(bw, "3 %d %d %d\n", t[0], t[1], t[2])
	}
	return bw.Flush()
}
