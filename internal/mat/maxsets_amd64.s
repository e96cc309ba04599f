#include "textflag.h"

// func maxSets4AVX(dst, x *float64, idx *int32, groups, length int)
//
// For each of groups groups of four sets: Y0 gathers the four sets' first
// cells, then, for each later position, Y2 gathers the next four cells and
// VMAXPD(Y2, Y0) keeps Y2's lane where it is greater and Y0's otherwise (on
// ±0 ties and on a NaN in either), which is the scan "if v > t { t = v }"
// lane by lane. The four maxima are stored to dst[4g:4g+4].
TEXT ·maxSets4AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ idx+16(FP), R8
	MOVQ groups+24(FP), R9
	MOVQ length+32(FP), R10

group:
	MOVLQSX     0(R8), AX
	MOVLQSX     4(R8), BX
	MOVLQSX     8(R8), CX
	MOVLQSX     12(R8), DX
	VMOVSD      (SI)(AX*8), X0
	VMOVHPD     (SI)(BX*8), X0, X0
	VMOVSD      (SI)(CX*8), X1
	VMOVHPD     (SI)(DX*8), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	ADDQ        $16, R8
	MOVQ        R10, R11
	DECQ        R11
	JZ          store

position:
	MOVLQSX     0(R8), AX
	MOVLQSX     4(R8), BX
	MOVLQSX     8(R8), CX
	MOVLQSX     12(R8), DX
	VMOVSD      (SI)(AX*8), X2
	VMOVHPD     (SI)(BX*8), X2, X2
	VMOVSD      (SI)(CX*8), X3
	VMOVHPD     (SI)(DX*8), X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMAXPD      Y0, Y2, Y0
	ADDQ        $16, R8
	DECQ        R11
	JNZ         position

store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    R9
	JNZ     group

	VZEROUPPER
	RET
