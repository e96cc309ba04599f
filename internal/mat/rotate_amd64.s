#include "textflag.h"

// func rotateAVX512(x, y *float64, n int, c, s float64)
//
// tql2's plane rotation on eight elements per step: with h = y[k],
// y[k] = s·x[k] + c·h and x[k] = c·x[k] − s·h, each product a VMULPD
// rounded before its VADDPD or VSUBPD, as rotateGeneric rounds them. n is
// a positive multiple of 8.
TEXT ·rotateAVX512(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), SI
	MOVQ         y+8(FP), DI
	MOVQ         n+16(FP), CX
	SHLQ         $3, CX          // n in bytes
	VBROADCASTSD c+24(FP), Z0
	VBROADCASTSD s+32(FP), Z1
	XORQ         AX, AX

loop:
	VMOVUPD (SI)(AX*1), Z2 // x
	VMOVUPD (DI)(AX*1), Z3 // h
	VMULPD  Z2, Z1, Z4     // s·x
	VMULPD  Z3, Z0, Z5     // c·h
	VMULPD  Z2, Z0, Z6     // c·x
	VMULPD  Z3, Z1, Z7     // s·h
	VADDPD  Z5, Z4, Z4     // s·x + c·h
	VSUBPD  Z7, Z6, Z6     // c·x − s·h
	VMOVUPD Z4, (DI)(AX*1)
	VMOVUPD Z6, (SI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     loop

	VZEROUPPER
	RET
