// Galaxy: a self-gravitating Plummer sphere advanced with leapfrog and
// adaptive-treecode forces — the astrophysics workload (galaxy formation,
// cluster dynamics) that motivates hierarchical n-body methods.
//
// The cluster starts cold (at rest), collapses, and virializes; the example
// tracks energy conservation and the cluster's half-mass radius.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"treecode"
)

func main() {
	const n = 1500
	parts, err := treecode.Generate(treecode.Plummer, n, 7)
	if err != nil {
		log.Fatal(err)
	}
	// Interpret charges as masses: total mass 1 (Generate normalizes).
	vel := make([]treecode.Vec3, n) // cold start

	nb, err := treecode.NewNBody(parts, vel, treecode.NBodyConfig{
		Dt: 5e-4,
		Force: treecode.Config{
			Method: treecode.Adaptive,
			Degree: 4,
			Alpha:  0.5,
			Soften: 0.005,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	_, _, e0 := nb.Energy()
	fmt.Printf("cold Plummer sphere, n=%d, initial energy %.6f\n", n, e0)
	fmt.Printf("%6s  %12s  %12s  %12s\n", "step", "total E", "drift", "r_half")
	for epoch := 0; epoch < 5; epoch++ {
		if err := nb.Run(8); err != nil {
			log.Fatal(err)
		}
		_, _, e := nb.Energy()
		fmt.Printf("%6d  %12.6f  %12.3e  %12.5f\n",
			nb.Steps(), e, (e-e0)/math.Abs(e0), halfMassRadius(nb.Particles()))
	}
	p := nb.Momentum()
	fmt.Printf("net momentum after %d steps: %.3e (should stay ~0)\n", nb.Steps(), p.Norm())
}

// halfMassRadius returns the radius about the center of mass containing
// half the total mass.
func halfMassRadius(parts []treecode.Particle) float64 {
	var com treecode.Vec3
	var m float64
	for _, p := range parts {
		com = com.Add(p.Pos.Scale(p.Charge))
		m += p.Charge
	}
	com = com.Scale(1 / m)
	radii := make([]float64, len(parts))
	for i, p := range parts {
		radii[i] = p.Pos.Dist(com)
	}
	sort.Float64s(radii)
	return radii[len(radii)/2]
}
