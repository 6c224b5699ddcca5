package multipole

// useAVX2 selects the AVX2 bodies of EvaluateFused and EvaluateFieldFused
// (fused_amd64.s), once, at package initialization.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the operating system saves
// the YMM registers across context switches (OSXSAVE, with XCR0's SSE and
// AVX state bits set).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const sseAVXState = 1<<1 | 1<<2
	if xgetbv()&sseAVXState != sseAVXState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0.
func xgetbv() (eax uint32)

// evaluateFusedAVX2 is evaluateFused's series for p >= 0, from the
// preamble's values: c = &Coeff[0] with len(Coeff) >= harmonics.Len(p),
// (ux, uy) the target's x and y offsets, zr = z/rho^2, invR2 = 1/rho^2 and
// s0 = 1/rho.
//
//go:noescape
func evaluateFusedAVX2(c *complex128, p int, ux, uy, zr, invR2, s0 float64) float64

// fieldColumnsAVX2 adds columns K >= 1 of evaluateFieldFused's series to
// acc = [phi, gx, gy, gz], for p >= 0 and the preamble's values as in
// evaluateFusedAVX2.
//
//go:noescape
func fieldColumnsAVX2(c *complex128, p int, dx, dy, zr, invR2, s0 float64, acc *[4]float64)
