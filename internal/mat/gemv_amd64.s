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

// func mulBias4x4(d0, d1, d2, d3, bias, a, xp *float64, rows, m int)
//
// Each pass of the outer loop computes a 4-row × 4-snapshot block of sums:
// Y0..Y3 hold rows i..i+3, one snapshot per lane. Lane k of row r repeats
// the generic kernel's s += a[i+r][j]·x_k[j] for j ascending, as a separate
// VMULPD and VADDPD from a zero start, so every sum is bit-identical to it.
// The block is then transposed to one vector per snapshot, added to
// bias[i:i+4] and stored to dk[i:i+4].
TEXT ·mulBias4x4(SB), NOSPLIT, $0-72
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
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
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

	VMOVUPD (BX)(R10*1), Y8     // bias[i:i+4]
	VADDPD  Y0, Y8, Y0          // bias + s, the generic kernel's b + s
	VADDPD  Y1, Y8, Y1
	VADDPD  Y2, Y8, Y2
	VADDPD  Y3, Y8, Y3
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
