//go:build !amd64

package multipole

// useAVX2 is false off amd64: the Go bodies are the only M2P kernels.
const useAVX2 = false

func evaluateFusedAVX2(c *complex128, p int, ux, uy, zr, invR2, s0 float64) float64 {
	panic("multipole: no AVX2 body on this architecture")
}

func fieldColumnsAVX2(c *complex128, p int, dx, dy, zr, invR2, s0 float64, acc *[4]float64) {
	panic("multipole: no AVX2 body on this architecture")
}
