// Command meshgen generates the built-in surfaces (sphere, propeller,
// gripper) and writes them as OFF or legacy-VTK files, so the synthetic
// geometry of the Table 3 reproduction can be inspected or reused.
package main

import (
	"flag"
	"fmt"
	"os"

	"treecode/internal/cliio"
	"treecode/internal/mesh"
	"treecode/internal/meshio"
	"treecode/internal/vec"
	"treecode/internal/vtk"
)

func main() {
	surface := flag.String("surface", "propeller", "sphere|propeller|gripper")
	density := flag.Int("density", 2, "resolution (sphere: subdivision level)")
	blades := flag.Int("blades", 3, "propeller blade count")
	format := flag.String("format", "off", "off|vtk")
	out := flag.String("o", "", "output file (default stdout)")
	ob := cliio.ObsFlagVars()
	flag.Parse()

	col := ob.Start()

	sp := col.Start("meshgen/generate")
	var m *mesh.Mesh
	switch *surface {
	case "sphere":
		m = mesh.Sphere(*density, 1, vec.V3{})
	case "propeller":
		m = mesh.Propeller(*blades, *density)
	case "gripper":
		m = mesh.Gripper(*density)
	default:
		fmt.Fprintln(os.Stderr, "unknown surface:", *surface)
		os.Exit(1)
	}
	sp.End()
	fmt.Fprintf(os.Stderr, "%s: %d elements, %d nodes\n", *surface, m.NumTris(), m.NumVerts())

	w, err := cliio.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sp = col.Start("meshgen/write")
	switch *format {
	case "off":
		err = meshio.WriteOFF(w.W, m)
	case "vtk":
		err = vtk.WriteMesh(w.W, m, nil)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	sp.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := ob.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "meshgen: writing obs trace:", err)
		os.Exit(1)
	}
}
