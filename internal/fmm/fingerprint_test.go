package fmm

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"treecode/internal/core"
	"treecode/internal/points"
	"treecode/internal/vec"
)

// floatHash is an FNV-1a digest of the bit patterns of xs.
func floatHash(xs ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range xs {
		for _, x := range s {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestTranslationKernelFingerprint pins the end-to-end results of every
// evaluation path through the M2M, M2L, L2L and L2P kernels: the FMM at
// fixed degree on a uniform cloud (Potentials, PotentialsAt), the adaptive
// FMM on a Gaussian (Fields, Potentials and PotentialsAt, where local and
// source degrees differ, so the source tree's and the target tree's
// local-degree rules are both pinned), and the treecode's adaptive batched
// Potentials and Fields (the planned upward pass and the fused M2P and
// field accept steps). M2M and L2L are bitwise the harmonics.Get-indexed
// convolutions of multipole's oracle_test.go. The first three FMM digests
// were recorded with the rotation M2L, after checking that every potential
// was within 5.7e-16 relative, and every field vector within 6.5e-16 of its
// norm, of the results of the convolution M2L they replaced; the adaptive
// Potentials and PotentialsAt digests were recorded with the same kernels,
// before the three FMM entry points shared one evaluation pass. The two
// core digests were recorded with the phase-factored
// M2P kernels, after checking that every potential was within 5.2e-16
// relative of the kernels they replaced (60% bitwise equal), and every
// field vector within 1.4e-15 of its norm. Results are worker-invariant, so
// the digests hold at any GOMAXPROCS. To re-record after a kernel change,
// compare every value of these cases with the previous code's before
// taking the new digests.
func TestTranslationKernelFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests were recorded on amd64, where Go never fuses multiply-adds")
	}
	check := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s digest %#x, recorded %#x", name, got, want)
		}
	}
	uni, err := points.Generate(points.Uniform, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(uni, Config{Method: core.Original, Degree: 8, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	phi, _ := f.Potentials()
	check("fmm Potentials", floatHash(phi), 0x173c446123a6bb69)

	rng := rand.New(rand.NewSource(2))
	targets := make([]vec.V3, 600)
	for i := range targets {
		targets[i] = vec.V3{X: 1.5 * rng.Float64(), Y: rng.Float64(), Z: rng.Float64() - 0.25}
	}
	at, _, err := f.PotentialsAt(targets)
	if err != nil {
		t.Fatal(err)
	}
	check("fmm PotentialsAt", floatHash(at), 0xfde85966437697e6)

	gauss, err := points.Generate(points.Gaussian, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	af, err := New(gauss, Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fphi, field, _ := af.Fields()
	comps := make([]float64, 0, 3*len(field))
	for _, g := range field {
		comps = append(comps, g.X, g.Y, g.Z)
	}
	check("adaptive fmm Fields", floatHash(fphi, comps), 0xe6204bfae61b412a)
	aphi, _ := af.Potentials()
	check("adaptive fmm Potentials", floatHash(aphi), 0x9ddb6e9feedc99f3)
	aat, _, err := af.PotentialsAt(targets)
	if err != nil {
		t.Fatal(err)
	}
	check("adaptive fmm PotentialsAt", floatHash(aat), 0x4a9dd82295316038)

	ce, err := core.New(gauss, core.Config{Method: core.Adaptive, Degree: 4, Alpha: 0.5, Eval: core.EvalBatched})
	if err != nil {
		t.Fatal(err)
	}
	cphi, _ := ce.Potentials()
	check("core batched Potentials", floatHash(cphi), 0xb7c36e76a5d28b79)
	cfphi, cfield, _ := ce.Fields()
	ccomps := make([]float64, 0, 3*len(cfield))
	for _, g := range cfield {
		ccomps = append(ccomps, g.X, g.Y, g.Z)
	}
	check("core batched Fields", floatHash(cfphi, ccomps), 0x29ae0c2fd284093d)
}
