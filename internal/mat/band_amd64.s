#include "textflag.h"

// The banded Cholesky kernels. Each lane repeats one accumulator of the
// generic kernel in band.go, a separate VMULPD and VADDPD for every product
// and sum and no fused multiply-add, over the same elements in the same
// order, so every result is bit-identical to the generic kernel's.

// func dot4AVX(a, b *float64, n int) float64
TEXT ·dot4AVX(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	SHLQ $3, CX            // CX = n·8, the end of the byte offset
	MOVQ CX, DX
	ANDQ $-32, DX          // DX = (n &^ 3)·8, the end of the whole quads
	XORQ AX, AX            // AX = i·8
	VXORPD Y0, Y0, Y0      // lane k = s_k, dot4's accumulator k
	CMPQ AX, DX
	JGE  reduce

quad:
	VMOVUPD (SI)(AX*1), Y1 // a[i:i+4]
	VMULPD  (DI)(AX*1), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     quad

reduce:
	VEXTRACTF128 $1, Y0, X2 // X2 = (s2, s3)
	VUNPCKHPD    X0, X0, X1 // X1 low = s1
	CMPQ         AX, CX
	JGE          sum

tail:
	VMOVSD (SI)(AX*1), X3  // s0 += a[i]·b[i] for the n%4 tail, in order
	VMULSD (DI)(AX*1), X3, X3
	VADDSD X3, X0, X0
	ADDQ   $8, AX
	CMPQ   AX, CX
	JLT    tail

sum:
	VADDSD    X1, X0, X0   // s0 + s1
	VADDSD    X2, X0, X0   // + s2
	VUNPCKHPD X2, X2, X3
	VADDSD    X3, X0, X0   // + s3
	VMOVSD    X0, ret+24(FP)
	VZEROUPPER
	RET

// func panelDotsAVX(p, x *float64, m int) (s0, s1, s2, s3 float64)
//
// Column t of the window is the four values p[4t:4t+4], one per panel row.
// Y0 accumulates the even columns and Y1 the odd ones, lane r for row r,
// as panelDotsGeneric's s_r and r_r; the result is Y0 + Y1.
TEXT ·panelDotsAVX(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ m+16(FP), CX
	MOVQ CX, DX
	ANDQ $-2, DX
	SHLQ $3, DX            // DX = (m &^ 1)·8, the end of the whole pairs
	XORQ AX, AX            // AX = t·8; column t sits at 32t = AX·4 in p
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ AX, DX
	JGE  odd

pair:
	VBROADCASTSD (DI)(AX*1), Y2
	VMULPD       (SI)(AX*4), Y2, Y2
	VADDPD       Y2, Y0, Y0
	VBROADCASTSD 8(DI)(AX*1), Y3
	VMULPD       32(SI)(AX*4), Y3, Y3
	VADDPD       Y3, Y1, Y1
	ADDQ         $16, AX
	CMPQ         AX, DX
	JLT          pair

odd:
	TESTQ $1, CX
	JZ    done
	VBROADCASTSD (DI)(AX*1), Y2 // the last column of an odd window
	VMULPD       (SI)(AX*4), Y2, Y2
	VADDPD       Y2, Y0, Y0

done:
	VADDPD       Y1, Y0, Y0     // s_r + r_r
	VEXTRACTF128 $1, Y0, X2
	VMOVSD       X0, s0+24(FP)
	VUNPCKHPD    X0, X0, X1
	VMOVSD       X1, s1+32(FP)
	VMOVSD       X2, s2+40(FP)
	VUNPCKHPD    X2, X2, X3
	VMOVSD       X3, s3+48(FP)
	VZEROUPPER
	RET

// func panelDots2AVX(p, x, y *float64, m int, s *[8]float64)
//
// panelDotsAVX for two vectors at once: each pair of panel columns is
// loaded into Y6 and Y7 once and fed to both. Y0/Y1 are x's even and odd
// accumulators and Y4/Y5 y's, each updated exactly as panelDotsAVX updates
// its own; s[0:4] receives Y0 + Y1 and s[4:8] Y4 + Y5.
TEXT ·panelDots2AVX(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ y+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ s+32(FP), R8
	MOVQ CX, DX
	ANDQ $-2, DX
	SHLQ $3, DX            // DX = (m &^ 1)·8, the end of the whole pairs
	XORQ AX, AX            // AX = t·8; column t sits at 32t = AX·4 in p
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	CMPQ AX, DX
	JGE  odd2

pair2:
	VMOVUPD      (SI)(AX*4), Y6   // column t
	VMOVUPD      32(SI)(AX*4), Y7 // column t+1
	VBROADCASTSD (DI)(AX*1), Y2
	VMULPD       Y6, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VBROADCASTSD 8(DI)(AX*1), Y3
	VMULPD       Y7, Y3, Y3
	VADDPD       Y3, Y1, Y1
	VBROADCASTSD (BX)(AX*1), Y2
	VMULPD       Y6, Y2, Y2
	VADDPD       Y2, Y4, Y4
	VBROADCASTSD 8(BX)(AX*1), Y3
	VMULPD       Y7, Y3, Y3
	VADDPD       Y3, Y5, Y5
	ADDQ         $16, AX
	CMPQ         AX, DX
	JLT          pair2

odd2:
	TESTQ $1, CX
	JZ    done2
	VMOVUPD      (SI)(AX*4), Y6 // the last column of an odd window
	VBROADCASTSD (DI)(AX*1), Y2
	VMULPD       Y6, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VBROADCASTSD (BX)(AX*1), Y3
	VMULPD       Y6, Y3, Y3
	VADDPD       Y3, Y4, Y4

done2:
	VADDPD  Y1, Y0, Y0 // x: s_r + r_r
	VADDPD  Y5, Y4, Y4 // y: s_r + r_r
	VMOVUPD Y0, (R8)
	VMOVUPD Y4, 32(R8)
	VZEROUPPER
	RET
