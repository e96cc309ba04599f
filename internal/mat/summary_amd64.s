#include "textflag.h"

// Lane indices 0..7 and the index step of one block, as float64s.
DATA summaryIdx<>+0(SB)/8, $0.0
DATA summaryIdx<>+8(SB)/8, $1.0
DATA summaryIdx<>+16(SB)/8, $2.0
DATA summaryIdx<>+24(SB)/8, $3.0
DATA summaryIdx<>+32(SB)/8, $4.0
DATA summaryIdx<>+40(SB)/8, $5.0
DATA summaryIdx<>+48(SB)/8, $6.0
DATA summaryIdx<>+56(SB)/8, $7.0
DATA summaryIdx<>+64(SB)/8, $8.0
GLOBL summaryIdx<>(SB), RODATA|NOPTR, $72

// func summaryBlocksAVX(x *float64, n int, st *laneStats)
//
// The blocked pass of Summarize over x[0:n], n a positive multiple of 8:
// lanes 0..3 live in the A registers and 4..7 in the B registers, one
// cell per lane, so lane k sees cells k, k+8, k+16, … . Each lane starts
// from its first cell; then, for every later cell v, VMAXPD(v, hi) is
// laneStats.add's "if v > hi { hi = v }" exactly (it returns its second
// operand unless the first is greater, on ±0 ties and NaN too), the GT_OQ
// compare and blend its "hiAt = i" under the same condition, VMINPD its
// "if v < lo { lo = v }" and VADDPD its "sum += v", so the lane sums are
// bit-identical to the generic twin's and the lanes reduce to its extremes.
//
// Registers: Y0/Y1 hi, Y2/Y3 lo, Y4/Y5 sum, Y6/Y7 the current cells'
// indices, Y8/Y9 hiAt, Y12 the step 8, Y13/Y14 the cells, Y10/Y11 the
// compare masks.
TEXT ·summaryBlocksAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), DX
	SHLQ $3, DX            // DX = n·8, the end offset
	MOVQ st+16(FP), DI

	VMOVUPD      (SI), Y0
	VMOVUPD      32(SI), Y1
	VMOVAPD      Y0, Y2
	VMOVAPD      Y1, Y3
	VMOVAPD      Y0, Y4
	VMOVAPD      Y1, Y5
	VMOVUPD      summaryIdx<>+0(SB), Y6
	VMOVUPD      summaryIdx<>+32(SB), Y7
	VMOVAPD      Y6, Y8
	VMOVAPD      Y7, Y9
	VBROADCASTSD summaryIdx<>+64(SB), Y12
	MOVQ         $64, CX   // CX = byte offset of the current block
	CMPQ         CX, DX
	JGE          done

block:
	VADDPD    Y12, Y6, Y6
	VADDPD    Y12, Y7, Y7
	VMOVUPD   (SI)(CX*1), Y13
	VMOVUPD   32(SI)(CX*1), Y14
	VCMPPD    $0x1e, Y0, Y13, Y10 // v > hi (GT_OQ: false on NaN, as in Go)
	VCMPPD    $0x1e, Y1, Y14, Y11
	VMAXPD    Y0, Y13, Y0
	VMAXPD    Y1, Y14, Y1
	VBLENDVPD Y10, Y6, Y8, Y8
	VBLENDVPD Y11, Y7, Y9, Y9
	VMINPD    Y2, Y13, Y2
	VMINPD    Y3, Y14, Y3
	VADDPD    Y13, Y4, Y4
	VADDPD    Y14, Y5, Y5
	ADDQ      $64, CX
	CMPQ      CX, DX
	JLT       block

done:
	VMOVUPD Y0, 0(DI)    // st.hi
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)   // st.lo
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)  // st.sum
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y8, 192(DI)  // st.hiAt
	VMOVUPD Y9, 224(DI)
	VZEROUPPER
	RET
