//go:build linux

package multipole

import (
	"syscall"
	"testing"
	"unsafe"

	"treecode/internal/harmonics"
)

// TestFusedStaysInsideCoeff: the fused kernels read no coefficient past
// Idx(p, p). Each degree-deg expansion gets a Coeff of exactly
// harmonics.Len(deg) entries that ends where an inaccessible page begins,
// and both kernels run on both bodies at prefix degrees deg and deg+1
// (clamped), so any load beyond the slice faults.
func TestFusedStaysInsideCoeff(t *testing.T) {
	const maxDeg = 24
	page := syscall.Getpagesize()
	size := (harmonics.Len(maxDeg)*16+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	end := size - page
	if err := syscall.Mprotect(mem[end:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	for deg := 0; deg <= maxDeg; deg++ {
		for _, dir := range scaleWindowDirs {
			src, x := fieldFusedCase(deg, dir, 0.5, 1)
			n := harmonics.Len(deg)
			coeff := unsafe.Slice((*complex128)(unsafe.Pointer(&mem[end-16*n])), n)
			copy(coeff, src.Coeff)
			e := *src
			e.Coeff = coeff
			for _, p := range []int{deg, deg + 1} {
				if msg := bodiesMismatch(&e, x, p); msg != "" {
					t.Fatalf("degree %d prefix %d dir %v: %s", deg, p, dir, msg)
				}
			}
			if got, want := e.EvaluateFused(x, deg), src.EvaluateFused(x, deg); !sameBits(got, want) {
				t.Fatalf("degree %d dir %v: %v at the page end, %v on the heap", deg, dir, got, want)
			}
		}
	}
}
