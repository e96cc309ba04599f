#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulBias4x4(d0, d1, d2, d3, bias, a, xp *float64, rows, m int, seeded bool)
//
// Each pass of the outer loop computes a 4-row × 4-snapshot block of sums:
// Y0..Y3 hold rows i..i+3, one snapshot per lane. Lane k of row r repeats
// the generic kernel's s += a[i+r][j]·x_k[j] for j ascending, as a separate
// VMULPD and VADDPD from a zero start (from bias[i+r] when seeded), so
// every sum is bit-identical to it. The block is then transposed to one
// vector per snapshot, added to bias[i:i+4] unless seeded, and stored to
// dk[i:i+4].
TEXT ·mulBias4x4(SB), NOSPLIT, $0-73
	MOVBQZX seeded+72(FP), DI // DI = 1 when the sums start at the bias
	MOVQ bias+32(FP), BX
	MOVQ a+40(FP), SI      // SI = &a[i·m], the block's first row
	MOVQ xp+48(FP), R8
	MOVQ rows+56(FP), DX
	SHLQ $3, DX            // DX = rows·8, the end of the row offset
	MOVQ m+64(FP), R9
	SHLQ $3, R9            // R9 = m·8, one operator row in bytes
	XORQ R10, R10          // R10 = i·8, the block's offset into bias and dk

rowblock:
	LEAQ (SI)(R9*1), R11   // rows i+1, i+2, i+3
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	TESTQ DI, DI
	JNZ   seed4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP   start4

seed4:
	VBROADCASTSD (BX)(R10*1), Y0   // bias[i+r] in every lane of row r
	VBROADCASTSD 8(BX)(R10*1), Y1
	VBROADCASTSD 16(BX)(R10*1), Y2
	VBROADCASTSD 24(BX)(R10*1), Y3

start4:
	XORQ CX, CX            // CX = j·8

col:
	VMOVUPD      (R8)(CX*4), Y4 // xp[4j:4j+4], reading j of the four snapshots
	VBROADCASTSD (SI)(CX*1), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R11)(CX*1), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (R12)(CX*1), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (R13)(CX*1), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, CX
	CMPQ         CX, R9
	JLT          col

	// Transpose: Yr lane k = sum(row i+r, snapshot k) becomes
	// Yk lane r, the four rows of snapshot k.
	VUNPCKLPD  Y1, Y0, Y4       // s(i,0) s(i+1,0) s(i,2) s(i+1,2)
	VUNPCKHPD  Y1, Y0, Y5       // s(i,1) s(i+1,1) s(i,3) s(i+1,3)
	VUNPCKLPD  Y3, Y2, Y6       // s(i+2,0) s(i+3,0) s(i+2,2) s(i+3,2)
	VUNPCKHPD  Y3, Y2, Y7       // s(i+2,1) s(i+3,1) s(i+2,3) s(i+3,3)
	VPERM2F128 $0x20, Y6, Y4, Y0 // snapshot 0
	VPERM2F128 $0x20, Y7, Y5, Y1 // snapshot 1
	VPERM2F128 $0x31, Y6, Y4, Y2 // snapshot 2
	VPERM2F128 $0x31, Y7, Y5, Y3 // snapshot 3

	TESTQ   DI, DI
	JNZ     store4
	VMOVUPD (BX)(R10*1), Y8     // bias[i:i+4]
	VADDPD  Y0, Y8, Y0          // bias + s, the generic kernel's b + s
	VADDPD  Y1, Y8, Y1
	VADDPD  Y2, Y8, Y2
	VADDPD  Y3, Y8, Y3

store4:
	MOVQ    d0+0(FP), AX
	VMOVUPD Y0, (AX)(R10*1)
	MOVQ    d1+8(FP), AX
	VMOVUPD Y1, (AX)(R10*1)
	MOVQ    d2+16(FP), AX
	VMOVUPD Y2, (AX)(R10*1)
	MOVQ    d3+24(FP), AX
	VMOVUPD Y3, (AX)(R10*1)

	LEAQ (SI)(R9*4), SI
	ADDQ $32, R10
	CMPQ R10, DX
	JLT  rowblock

	// Clear the upper YMM halves before returning to SSE code.
	VZEROUPPER
	RET

// func mulBias8x8(d0, d1, d2, d3, d4, d5, d6, d7, bias, a, xp *float64, rows, m int, seeded bool)
//
// The AVX-512 form of mulBias4x4: each pass of the outer loop computes an
// 8-row × 8-snapshot block of sums in Z0..Z7, row i+r in Zr, one snapshot
// per lane. Lane k of row r repeats the generic kernel's
// s += a[i+r][j]·x_k[j] for j ascending, as a separate VMULPD and VADDPD
// from a zero start (from bias[i+r] when seeded), so every sum is
// bit-identical to it. Three rounds of shuffles transpose the block to one
// vector per snapshot, which is added to bias[i:i+8] unless seeded and
// stored to dk[i:i+8]. Only Z0..Z15 are used, so AVX512F is the one
// extension the kernel needs.
TEXT ·mulBias8x8(SB), NOSPLIT, $0-105
	MOVBQZX seeded+104(FP), DI // DI = 1 when the sums start at the bias
	MOVQ bias+64(FP), BX
	MOVQ a+72(FP), SI      // SI = &a[i·m], the block's first row
	MOVQ xp+80(FP), R8
	MOVQ rows+88(FP), DX
	SHLQ $3, DX            // DX = rows·8, the end of the row offset
	MOVQ m+96(FP), R9
	SHLQ $3, R9            // R9 = m·8, one operator row in bytes
	LEAQ (R9)(R9*2), R13   // R13 = 3·m·8
	XORQ R10, R10          // R10 = i·8, the block's offset into bias and dk

rowblock:
	MOVQ   SI, R11         // R11 = &a[i][j]: rows i..i+3 at R11 + r·m·8
	LEAQ   (SI)(R9*4), R12 // R12 = &a[i+4][j]: rows i+4..i+7
	TESTQ  DI, DI
	JNZ    seed8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP    start8

seed8:
	VBROADCASTSD (BX)(R10*1), Z0   // bias[i+r] in every lane of row r
	VBROADCASTSD 8(BX)(R10*1), Z1
	VBROADCASTSD 16(BX)(R10*1), Z2
	VBROADCASTSD 24(BX)(R10*1), Z3
	VBROADCASTSD 32(BX)(R10*1), Z4
	VBROADCASTSD 40(BX)(R10*1), Z5
	VBROADCASTSD 48(BX)(R10*1), Z6
	VBROADCASTSD 56(BX)(R10*1), Z7

start8:
	XORQ   CX, CX          // CX = j·8

col:
	VMOVUPD      (R8)(CX*8), Z8 // xp[8j:8j+8], reading j of the eight snapshots
	VBROADCASTSD (R11), Z9
	VMULPD       Z8, Z9, Z9
	VADDPD       Z9, Z0, Z0
	VBROADCASTSD (R11)(R9*1), Z10
	VMULPD       Z8, Z10, Z10
	VADDPD       Z10, Z1, Z1
	VBROADCASTSD (R11)(R9*2), Z11
	VMULPD       Z8, Z11, Z11
	VADDPD       Z11, Z2, Z2
	VBROADCASTSD (R11)(R13*1), Z12
	VMULPD       Z8, Z12, Z12
	VADDPD       Z12, Z3, Z3
	VBROADCASTSD (R12), Z13
	VMULPD       Z8, Z13, Z13
	VADDPD       Z13, Z4, Z4
	VBROADCASTSD (R12)(R9*1), Z14
	VMULPD       Z8, Z14, Z14
	VADDPD       Z14, Z5, Z5
	VBROADCASTSD (R12)(R9*2), Z15
	VMULPD       Z8, Z15, Z15
	VADDPD       Z15, Z6, Z6
	VBROADCASTSD (R12)(R13*1), Z9
	VMULPD       Z8, Z9, Z9
	VADDPD       Z9, Z7, Z7
	ADDQ         $8, R11
	ADDQ         $8, R12
	ADDQ         $8, CX
	CMPQ         CX, R9
	JLT          col

	// Transpose: Zr lane k = s(i+r, k) becomes Z8+k lane r, the eight
	// rows of snapshot k. Round 1 pairs rows within 128-bit lanes, rounds
	// 2 and 3 gather the 128-bit lanes.
	VUNPCKLPD  Z1, Z0, Z8         // s(i,0) s(i+1,0) | s(i,2) s(i+1,2) | s(i,4) … | s(i,6) …
	VUNPCKHPD  Z1, Z0, Z9         // s(i,1) s(i+1,1) | s(i,3) … | s(i,5) … | s(i,7) …
	VUNPCKLPD  Z3, Z2, Z10
	VUNPCKHPD  Z3, Z2, Z11
	VUNPCKLPD  Z5, Z4, Z12
	VUNPCKHPD  Z5, Z4, Z13
	VUNPCKLPD  Z7, Z6, Z14
	VUNPCKHPD  Z7, Z6, Z15
	VSHUFF64X2 $0x88, Z10, Z8, Z0 // rows i..i+3 of snapshots 0 and 4
	VSHUFF64X2 $0x88, Z11, Z9, Z1 // … of snapshots 1 and 5
	VSHUFF64X2 $0xdd, Z10, Z8, Z2 // … of snapshots 2 and 6
	VSHUFF64X2 $0xdd, Z11, Z9, Z3 // … of snapshots 3 and 7
	VSHUFF64X2 $0x88, Z14, Z12, Z4 // rows i+4..i+7 of snapshots 0 and 4
	VSHUFF64X2 $0x88, Z15, Z13, Z5
	VSHUFF64X2 $0xdd, Z14, Z12, Z6
	VSHUFF64X2 $0xdd, Z15, Z13, Z7
	VSHUFF64X2 $0x88, Z4, Z0, Z8  // snapshot 0
	VSHUFF64X2 $0x88, Z5, Z1, Z9  // snapshot 1
	VSHUFF64X2 $0x88, Z6, Z2, Z10 // snapshot 2
	VSHUFF64X2 $0x88, Z7, Z3, Z11 // snapshot 3
	VSHUFF64X2 $0xdd, Z4, Z0, Z12 // snapshot 4
	VSHUFF64X2 $0xdd, Z5, Z1, Z13 // snapshot 5
	VSHUFF64X2 $0xdd, Z6, Z2, Z14 // snapshot 6
	VSHUFF64X2 $0xdd, Z7, Z3, Z15 // snapshot 7

	TESTQ   DI, DI
	JNZ     store8
	VMOVUPD (BX)(R10*1), Z0     // bias[i:i+8]
	VADDPD  Z8, Z0, Z8          // bias + s, the generic kernel's b + s
	VADDPD  Z9, Z0, Z9
	VADDPD  Z10, Z0, Z10
	VADDPD  Z11, Z0, Z11
	VADDPD  Z12, Z0, Z12
	VADDPD  Z13, Z0, Z13
	VADDPD  Z14, Z0, Z14
	VADDPD  Z15, Z0, Z15

store8:
	MOVQ    d0+0(FP), AX
	VMOVUPD Z8, (AX)(R10*1)
	MOVQ    d1+8(FP), AX
	VMOVUPD Z9, (AX)(R10*1)
	MOVQ    d2+16(FP), AX
	VMOVUPD Z10, (AX)(R10*1)
	MOVQ    d3+24(FP), AX
	VMOVUPD Z11, (AX)(R10*1)
	MOVQ    d4+32(FP), AX
	VMOVUPD Z12, (AX)(R10*1)
	MOVQ    d5+40(FP), AX
	VMOVUPD Z13, (AX)(R10*1)
	MOVQ    d6+48(FP), AX
	VMOVUPD Z14, (AX)(R10*1)
	MOVQ    d7+56(FP), AX
	VMOVUPD Z15, (AX)(R10*1)

	LEAQ (SI)(R9*8), SI
	ADDQ $64, R10
	CMPQ R10, DX
	JLT  rowblock

	VZEROUPPER
	RET
