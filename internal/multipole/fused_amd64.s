// AVX2 bodies of EvaluateFused and EvaluateFieldFused (multipole.go).
//
// One YMM register carries two adjacent columns (m, m+1) of the
// phase-factored series, laid out [Re C_m, Im C_m, Re C_m+1, Im C_m+1].
// Columns m and m+1 of row n sit side by side in the triangular storage,
// so a single unaligned 256-bit load at Idx(n, m) reads both coefficients.
// Each lane runs the Go body's operations in the Go body's order, with no
// fused multiply-add:
//
//	t' = (a*zr)*t - (b*invR2)*q,   a = 2n-1,   b = (n-1)^2 - {m^2, (m+1)^2}
//
// a and b are small integers, advanced by exact float adds (b += a,
// a += 2). A pair's ragged first rows, where only column m has terms or
// column m+1 starts its recurrence, are peeled in 128-bit halves or
// blended, and the per-column finish (the phi and grad updates, then the
// diagonal step S_m+1^m+1 = -(2m+1)(x+iy) S_m^m / rho^2) runs in scalar
// VEX ops in column order. So every result is bitwise the Go body's
// (fused_test.go). No load leaves Idx(p, p); the Go wrapper checks
// len(Coeff) >= harmonics.Len(p) before the call.

#include "textflag.h"

DATA fusedOnes<>+0(SB)/8, $0x3ff0000000000000
DATA fusedOnes<>+8(SB)/8, $0x3ff0000000000000
GLOBL fusedOnes<>(SB), RODATA|NOPTR, $16

DATA fusedTwo<>+0(SB)/8, $0x4000000000000000
GLOBL fusedTwo<>(SB), RODATA|NOPTR, $8

DATA fusedSign<>+0(SB)/8, $0x8000000000000000
DATA fusedSign<>+8(SB)/8, $0x8000000000000000
GLOBL fusedSign<>(SB), RODATA|NOPTR, $16

// DIAG steps SM = [Re, Im] of S_k-1^k-1 to S_k^k, given K2M1 = 2k-1 in a
// general register, INVR2 = invR2 in the low lane, NXY = [-x, -y] and a
// zero ZERO:
//
//	f = (2k-1)*invR2;  [ar, ai] = f*[-x, -y]
//	SM = [ar*Re - ai*Im, ar*Im + ai*Re]
//
// f*(-x) is (-f)*x bitwise: rounding to nearest is sign-symmetric.
#define DIAG(K2M1, INVR2, NXY, SM, ZERO, T0, T1, T2) \
	VCVTSI2SDQ K2M1, ZERO, T0; \
	VMULSD     INVR2, T0, T0; \
	VMOVDDUP   T0, T0; \
	VMULPD     NXY, T0, T0; \
	VMOVDDUP   T0, T1; \
	VPERMILPD  $3, T0, T2; \
	VMULPD     SM, T1, T1; \
	VPERMILPD  $1, SM, SM; \
	VMULPD     SM, T2, T2; \
	VADDSUBPD  T2, T1, SM

// CROSS sets the low lane of DST to Re V * Re SM - Im V * Im SM.
#define CROSS(V, SM, DST, T) \
	VMULPD    SM, V, DST; \
	VPERMILPD $1, DST, T; \
	VSUBSD    T, DST, DST

// func evaluateFusedAVX2(c *complex128, p int, ux, uy, zr, invR2, s0 float64) float64
//
// Registers: Y0 C, Y1 T, Y2 Q, Y3 A, Y4 B, Y5-Y7 scratch, Y8 [2, 2, 2, 2],
// Y9 zr, Y10 invR2 (broadcast), X11 S_m^m, X12 [-ux, -uy], X13 phi,
// X14 w, X15 zero; DI = &c[Idx(m, m)], SI row pointer, DX row stride in
// bytes, BX m, CX p, R8 row count.
TEXT ·evaluateFusedAVX2(SB), NOSPLIT, $0-64
	MOVQ         c+0(FP), DI
	MOVQ         p+8(FP), CX
	XORQ         BX, BX
	VXORPD       X15, X15, X15
	VBROADCASTSD fusedTwo<>(SB), Y8
	VBROADCASTSD zr+32(FP), Y9
	VBROADCASTSD invR2+40(FP), Y10
	VMOVSD       s0+48(FP), X11
	VMOVSD       ux+16(FP), X12
	VMOVHPD      uy+24(FP), X12, X12
	VXORPD       fusedSign<>(SB), X12, X12
	VXORPD       X13, X13, X13
	VMOVSD       fusedOnes<>(SB), X14

pair:
	CMPQ BX, CX
	JEQ  single

	// Row m: column m alone, t_m = 1.
	VMOVUPD (DI), X0

	// Row m+1: column m at t_m+1 = (2m+1) zr; column m+1 at t = 1.
	LEAQ       1(BX)(BX*1), AX
	VCVTSI2SDQ AX, X15, X5
	VMULSD     X9, X5, X1
	MOVQ       BX, DX
	INCQ       DX
	SHLQ       $4, DX
	LEAQ       (DI)(DX*1), SI
	VMOVDDUP   X1, X6
	VMULPD     (SI), X6, X6
	VADDPD     X6, X0, X0
	VINSERTF128 $1, 16(SI), Y0, Y0
	LEAQ       1(BX), AX
	CMPQ       AX, CX
	JEQ        finish

	// Row m+2: column m's first recurrence step (q = 1, b = 2m+1) and
	// column m+1's t_m+2 = (2m+3) zr, which is column m's a*zr.
	ADDQ        $16, DX
	ADDQ        DX, SI
	LEAQ        3(BX)(BX*1), AX
	VCVTSI2SDQ  AX, X15, X6
	VMULSD      X9, X6, X6
	VMULSD      X10, X5, X7
	VMULSD      X1, X6, X3
	VSUBSD      X7, X3, X3
	VMOVDDUP    X1, X2
	VINSERTF128 $1, fusedOnes<>(SB), Y2, Y2
	VMOVDDUP    X3, X1
	VMOVDDUP    X6, X6
	VINSERTF128 $1, X6, Y1, Y1
	VMULPD      (SI), Y1, Y5
	VADDPD      Y5, Y0, Y0
	LEAQ        2(BX), AX
	CMPQ        AX, CX
	JEQ         finish

	// Rows n = m+3 .. p, both columns steady: a = 2n-1,
	// b = [(n+m-1)(n-m-1), (n+m)(n-m-2)], from a = 2m+5, b = [4m+4, 2m+3].
	MOVQ         CX, R8
	SUBQ         AX, R8
	LEAQ         5(BX)(BX*1), AX
	VCVTSI2SDQ   AX, X15, X3
	VBROADCASTSD X3, Y3
	LEAQ         1(BX), AX
	SHLQ         $2, AX
	VCVTSI2SDQ   AX, X15, X4
	LEAQ         3(BX)(BX*1), AX
	VCVTSI2SDQ   AX, X15, X5
	VMOVDDUP     X4, X4
	VMOVDDUP     X5, X5
	VINSERTF128  $1, X5, Y4, Y4
	ADDQ         $16, DX
	ADDQ         DX, SI

row:
	VMULPD Y9, Y3, Y5
	VMULPD Y10, Y4, Y6
	VMULPD Y1, Y5, Y5
	VMULPD Y2, Y6, Y6
	VSUBPD Y6, Y5, Y5
	VMULPD (SI), Y5, Y6
	VADDPD Y6, Y0, Y0
	VMOVAPD Y1, Y2
	VMOVAPD Y5, Y1
	VADDPD Y3, Y4, Y4
	VADDPD Y8, Y3, Y3
	ADDQ   $16, DX
	ADDQ   DX, SI
	DECQ   R8
	JNZ    row

finish:
	// Column m: phi += w Re(C_m S_m^m); w = 2 from here on.
	CROSS(X0, X11, X5, X6)
	VMULSD  X14, X5, X5
	VADDSD  X5, X13, X13
	VMOVAPD X8, X14
	LEAQ    1(BX)(BX*1), AX
	DIAG(AX, X10, X12, X11, X15, X5, X6, X7)

	// Column m+1.
	VEXTRACTF128 $1, Y0, X0
	CROSS(X0, X11, X5, X6)
	VMULSD       X14, X5, X5
	VADDSD       X5, X13, X13
	LEAQ         1(BX), AX
	CMPQ         AX, CX
	JEQ          done
	LEAQ         3(BX)(BX*1), AX
	DIAG(AX, X10, X12, X11, X15, X5, X6, X7)

	// Next pair: DI = &c[Idx(m+2, m+2)] = DI + 16 (2m+5).
	LEAQ 5(BX)(BX*1), AX
	SHLQ $4, AX
	ADDQ AX, DI
	ADDQ $2, BX
	JMP  pair

single:
	// Column p alone (p even): C = M_p^p.
	VMOVUPD (DI), X0
	CROSS(X0, X11, X5, X6)
	VMULSD  X14, X5, X5
	VADDSD  X5, X13, X13

done:
	VMOVSD     X13, ret+56(FP)
	VZEROUPPER
	RET

// FIELDFINISH adds one column's terms with X13 = S_K^K:
//
//	phi += 2 Re(P S)   gz -= 2 Re(G S)   gx += Re(D S)   gy += Im(S' S)
//
// P, G, D = L-R and S' = L+R hold [Re, Im] of the column in their low
// lanes; R9 points at [phi, gx, gy, gz]; X12 is [2, ...].
#define FIELDFINISH(P, G, D, S, T0, T1) \
	CROSS(P, X13, T0, T1); \
	VMULSD    X12, T0, T0; \
	VADDSD    0(R9), T0, T0; \
	VMOVSD    T0, 0(R9); \
	CROSS(G, X13, T0, T1); \
	VMULSD    X12, T0, T0; \
	VMOVSD    24(R9), T1; \
	VSUBSD    T0, T1, T1; \
	VMOVSD    T1, 24(R9); \
	CROSS(D, X13, T0, T1); \
	VADDSD    8(R9), T0, T0; \
	VMOVSD    T0, 8(R9); \
	VPERMILPD $1, X13, T1; \
	VMULPD    T1, S, T0; \
	VPERMILPD $1, T0, T1; \
	VADDSD    T1, T0, T0; \
	VADDSD    16(R9), T0, T0; \
	VMOVSD    T0, 16(R9)

// func fieldColumnsAVX2(c *complex128, p int, dx, dy, zr, invR2, s0 float64, acc *[4]float64)
//
// Columns K >= 1 of EvaluateFieldFused, in pairs (K, K+1) for odd K. Per
// column the four complex sums
//
//	P = sum M_N-1^K t_N-1    G = sum M_N-1^K t_N
//	L = sum M_N-1^K-1 t_N    R = sum M_N-1^K+1 t_N
//
// take three overlapping loads per row at Idx(N-1, K) - 1, Idx(N-1, K)
// and Idx(N-1, K) + 1. Rows N = K .. K+2 are peeled: there column K+1 has
// no or only its first terms, and M_K+1^K+2 does not exist.
//
// Registers: Y0 P, Y1 G, Y2 L, Y3 R, Y4 T, Y5 Q, Y6 A, Y7 B, Y8 Y9
// scratch, Y10 zr, Y11 invR2 (broadcast), Y12 [2, 2, 2, 2], X13 S_K^K,
// X14 [-dx, -dy], X15 zero; DI = &c[Idx(K-1, K-1)] at the top of a
// column, SI row pointer, DX row stride in bytes, BX K, CX p, R8 row
// count, R9 acc.
TEXT ·fieldColumnsAVX2(SB), NOSPLIT, $0-64
	MOVQ         c+0(FP), DI
	MOVQ         p+8(FP), CX
	MOVQ         acc+56(FP), R9
	MOVQ         $1, BX
	VXORPD       X15, X15, X15
	VBROADCASTSD zr+32(FP), Y10
	VBROADCASTSD invR2+40(FP), Y11
	VBROADCASTSD fusedTwo<>(SB), Y12
	VMOVSD       s0+48(FP), X13
	VMOVSD       dx+16(FP), X14
	VMOVHPD      dy+24(FP), X14, X14
	VXORPD       fusedSign<>(SB), X14, X14

column:
	LEAQ -1(BX)(BX*1), AX
	DIAG(AX, X11, X14, X13, X15, X6, X7, X8)
	CMPQ BX, CX
	JGT  short

	// Rows K and K+1 of column K: L = M_K-1^K-1 + M_K^K-1 t, P = M_K^K,
	// G = M_K^K t, R = 0, with t = t_K+1 = (2K+1) zr.
	VMOVUPD    (DI), X2
	MOVQ       BX, DX
	INCQ       DX
	SHLQ       $4, DX
	ADDQ       DX, DI
	LEAQ       1(BX)(BX*1), AX
	VCVTSI2SDQ AX, X15, X6
	VMULSD     X10, X6, X8
	VMOVDDUP   X8, X4
	VMOVUPD    (DI), X0
	VMULPD     X4, X0, X1
	VMULPD     -16(DI), X4, X9
	VADDPD     X9, X2, X2
	VXORPD     Y3, Y3, Y3
	CMPQ       BX, CX
	JEQ        single

	// Row K+1 of column K+1: L_K+1 = M_K^K.
	VINSERTF128 $1, (DI), Y2, Y2

	// Row K+2: column K's first recurrence step nt = t' t - (2K+1) invR2
	// (q = 1), where c1 = (2K+3) zr is also column K+1's t' = t_K+2.
	LEAQ        (DI)(DX*1), SI
	ADDQ        $16, DX
	LEAQ        3(BX)(BX*1), AX
	VCVTSI2SDQ  AX, X15, X9
	VMULSD      X10, X9, X9
	VMULSD      X11, X6, X6
	VMULSD      X8, X9, X7
	VSUBSD      X6, X7, X7
	VMOVDDUP    X7, X7
	VMOVDDUP    X9, X9
	VINSERTF128 $1, X9, Y7, Y7

	// P = [P_K + M_K+1^K t, M_K+1^K+1].
	VMOVUPD     (SI), Y8
	VMULPD      X4, X8, X9
	VADDPD      X9, X0, X0
	VINSERTF128 $1, 16(SI), Y0, Y0

	// G = [G_K + M_K+1^K nt, M_K+1^K+1 t'].
	VMULPD   Y7, Y8, Y9
	VADDPD   X9, X1, X1
	VBLENDPD $0x0c, Y9, Y1, Y1

	// L += [M_K+1^K-1, M_K+1^K] [nt, t'];  R = [0 + M_K+1^K+1 nt, 0].
	VMULPD -16(SI), Y7, Y9
	VADDPD Y9, Y2, Y2
	VMULPD 16(SI), X7, X9
	VADDPD X9, X3, X3

	// Q = [t, t, 1, 1], T = [nt, nt, t', t'].
	VINSERTF128 $1, fusedOnes<>(SB), Y4, Y5
	VMOVAPD     Y7, Y4
	LEAQ        1(BX), AX
	CMPQ        AX, CX
	JEQ         pairdone

	// Rows N = K+3 .. p+1, both columns steady: a = 2N-1,
	// b = [(N+K-1)(N-K-1), (N+K)(N-K-2)], from a = 2K+5, b = [4K+4, 2K+3].
	MOVQ         CX, R8
	SUBQ         AX, R8
	LEAQ         5(BX)(BX*1), AX
	VCVTSI2SDQ   AX, X15, X6
	VBROADCASTSD X6, Y6
	LEAQ         1(BX), AX
	SHLQ         $2, AX
	VCVTSI2SDQ   AX, X15, X7
	LEAQ         3(BX)(BX*1), AX
	VCVTSI2SDQ   AX, X15, X8
	VMOVDDUP     X7, X7
	VMOVDDUP     X8, X8
	VINSERTF128  $1, X8, Y7, Y7
	ADDQ         DX, SI

frow:
	VMULPD Y10, Y6, Y8
	VMULPD Y11, Y7, Y9
	VMULPD Y4, Y8, Y8
	VMULPD Y5, Y9, Y9
	VSUBPD Y9, Y8, Y8
	VMULPD (SI), Y4, Y9
	VADDPD Y9, Y0, Y0
	VMULPD (SI), Y8, Y9
	VADDPD Y9, Y1, Y1
	VMULPD -16(SI), Y8, Y9
	VADDPD Y9, Y2, Y2
	VMULPD 16(SI), Y8, Y9
	VADDPD Y9, Y3, Y3
	VMOVAPD Y4, Y5
	VMOVAPD Y8, Y4
	VADDPD Y6, Y7, Y7
	VADDPD Y12, Y6, Y6
	ADDQ   $16, DX
	ADDQ   DX, SI
	DECQ   R8
	JNZ    frow

pairdone:
	VSUBPD Y3, Y2, Y4
	VADDPD Y3, Y2, Y5
	FIELDFINISH(X0, X1, X4, X5, X8, X9)
	LEAQ   1(BX)(BX*1), AX
	DIAG(AX, X11, X14, X13, X15, X6, X7, X8)
	VEXTRACTF128 $1, Y0, X0
	VEXTRACTF128 $1, Y1, X1
	VEXTRACTF128 $1, Y4, X4
	VEXTRACTF128 $1, Y5, X5
	FIELDFINISH(X0, X1, X4, X5, X8, X9)

	// Next pair: DI = &c[Idx(K+1, K+1)] = &c[Idx(K, K)] + 16 (K+2).
	LEAQ 2(BX), DX
	SHLQ $4, DX
	ADDQ DX, DI
	ADDQ $2, BX
	JMP  column

single:
	// K = p: column K has no steady rows; column K+1 is past p.
	VSUBPD X3, X2, X4
	VADDPD X3, X2, X5
	FIELDFINISH(X0, X1, X4, X5, X8, X9)
	INCQ   BX
	LEAQ   -1(BX)(BX*1), AX
	DIAG(AX, X11, X14, X13, X15, X6, X7, X8)

short:
	// K = p+1: only the ladder term of M_p^p with S_K^K.
	VMOVUPD   (DI), X0
	CROSS(X0, X13, X8, X9)
	VADDSD    8(R9), X8, X8
	VMOVSD    X8, 8(R9)
	VPERMILPD $1, X13, X9
	VMULPD    X9, X0, X8
	VPERMILPD $1, X8, X9
	VADDSD    X9, X8, X8
	VADDSD    16(R9), X8, X8
	VMOVSD    X8, 16(R9)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
