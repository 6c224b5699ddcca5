package main

import (
	"fmt"
	"math/rand"
	"time"

	"treecode/bench/spec"
	"treecode/internal/direct"
	"treecode/internal/harmonics"
	"treecode/internal/multipole"
	"treecode/internal/points"
	"treecode/internal/rotation"
	"treecode/internal/vec"
)

// kernelDegrees are the degrees the kernel probes run at: the minimum
// degree of the adaptive workloads, a middle one, and the degree their
// roots carry.
var kernelDegrees = []int{4, 8, 13}

// Each kernel probe times kernelBatches batches of a call count calibrated
// to take at least kernelBatch, on one goroutine, and reports the median.
const (
	kernelBatches = 5
	kernelBatch   = 2 * time.Millisecond
)

// Sinks keep the compiler from discarding probed calls.
var (
	sinkF float64
	sinkE *multipole.Expansion
	sinkL *multipole.Local
)

// kernels adds the single-goroutine kernel probes: every multipole
// operator of the upward pass, the far field and the FMM, in ns per
// (p+1)^2 terms, and direct summation in ns per pair. Their inputs are
// fixed, not seeded: the kernels' cost does not depend on the workload.
func kernels(r *report) {
	rng := rand.New(rand.NewSource(1))
	const nsrc = 32
	pos := make([]vec.V3, nsrc)
	q := make([]float64, nsrc)
	for i := range pos {
		pos[i] = vec.V3{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5, Z: rng.Float64() - 0.5}.Scale(0.2)
		q[i] = rng.Float64()
	}
	parent := vec.V3{X: 0.05, Y: -0.03, Z: 0.08} // M2M destination
	target := vec.V3{X: 1.1, Y: 0.7, Z: -0.9}    // well-separated M2P point and M2L center
	for _, p := range kernelDegrees {
		src := multipole.P2M(pos, q, vec.V3{}, p)
		buf := make([]complex128, harmonics.Len(p+1))
		_, thetaM2M, _ := src.Center.Sub(parent).Spherical()
		m2mPlan := rotation.NewPlan(p, thetaM2M)
		_, thetaM2L, _ := target.Sub(src.Center).Spherical()
		m2lPlan := rotation.NewPlan(p, thetaM2L)
		dst := multipole.NewExpansion(parent, p)
		terms := float64(multipole.Terms(p))
		k := 0
		probe := func(kernel string, f func()) {
			r.add(fmt.Sprintf("multipole.%s_ns_per_term.p%d", kernel, p), "ns/term", nsPerCall(f)/terms)
		}
		probe("p2m", func() {
			dst.AddParticleAt(pos[k%nsrc], q[k%nsrc], buf)
			k++
		})
		probe("m2m", func() { dst.AccumulateTranslatedBuf(src, buf) })
		probe("m2m_rot", func() { sinkE = src.TranslateRot(parent, p, m2mPlan) })
		probe("m2m_rot_cold", func() { sinkE = src.TranslateRot(parent, p, nil) })
		probe("m2p", func() { sinkF += src.EvaluateFused(target, p) })
		probe("m2p_field", func() {
			phi, _ := src.EvaluateFieldBuf(target, p, buf)
			sinkF += phi
		})
		probe("m2l", func() { sinkL = src.M2L(target, p) })
		probe("m2l_rot", func() { sinkL = src.M2LRot(target, p, m2lPlan) })
	}

	sources := make([]points.Particle, 256)
	for i := range sources {
		sources[i] = points.Particle{Pos: vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}, Charge: 1}
	}
	targets := make([]vec.V3, 64)
	for i := range targets {
		targets[i] = vec.V3{X: rng.Float64() + 2, Y: rng.Float64(), Z: rng.Float64()}
	}
	pairs := float64(len(sources) * len(targets))
	r.add("direct.p2p_ns_per_pair", "ns/pair", nsPerCall(func() {
		sinkF += direct.Potentials(sources, targets, 1)[0]
	})/pairs)
}

// nsPerCall returns the median over kernelBatches batches of f's time per
// call in nanoseconds.
func nsPerCall(f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= kernelBatch {
			break
		}
		n *= 2
	}
	per := make([]float64, kernelBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return spec.Median(per)
}
