#include "textflag.h"

// Lane offsets 0 … 15, the column of each float32 lane of a 16-column
// half-pass.
DATA dotsIota<>+0(SB)/4, $0
DATA dotsIota<>+4(SB)/4, $1
DATA dotsIota<>+8(SB)/4, $2
DATA dotsIota<>+12(SB)/4, $3
DATA dotsIota<>+16(SB)/4, $4
DATA dotsIota<>+20(SB)/4, $5
DATA dotsIota<>+24(SB)/4, $6
DATA dotsIota<>+28(SB)/4, $7
DATA dotsIota<>+32(SB)/4, $8
DATA dotsIota<>+36(SB)/4, $9
DATA dotsIota<>+40(SB)/4, $10
DATA dotsIota<>+44(SB)/4, $11
DATA dotsIota<>+48(SB)/4, $12
DATA dotsIota<>+52(SB)/4, $13
DATA dotsIota<>+56(SB)/4, $14
DATA dotsIota<>+60(SB)/4, $15
GLOBL dotsIota<>(SB), RODATA|NOPTR, $64

// Every bit of a float32 but its sign, in each of 16 lanes.
DATA dotsAbsMaskS<>+0(SB)/8, $0x7fffffff7fffffff
DATA dotsAbsMaskS<>+8(SB)/8, $0x7fffffff7fffffff
DATA dotsAbsMaskS<>+16(SB)/8, $0x7fffffff7fffffff
DATA dotsAbsMaskS<>+24(SB)/8, $0x7fffffff7fffffff
DATA dotsAbsMaskS<>+32(SB)/8, $0x7fffffff7fffffff
DATA dotsAbsMaskS<>+40(SB)/8, $0x7fffffff7fffffff
DATA dotsAbsMaskS<>+48(SB)/8, $0x7fffffff7fffffff
DATA dotsAbsMaskS<>+56(SB)/8, $0x7fffffff7fffffff
GLOBL dotsAbsMaskS<>(SB), RODATA|NOPTR, $64

// DOTS64 sums the products of x[0:k] with the 64 columns of the block at
// DI into Z0..Z7, eight columns per register, one column per lane: for i
// ascending, Zr += x[i]·b[i·n + 8r : i·n + 8r + 8], a VMULPD rounded
// before its VADDPD, from a zero start, so lane c is Dot's sum for column
// c. SI = &x[0], R8 = k·8, R9 = n·8; uses R11, CX and Z8, Z24..Z27.
#define DOTS64 \
	VPXORQ       Z0, Z0, Z0     \
	VPXORQ       Z1, Z1, Z1     \
	VPXORQ       Z2, Z2, Z2     \
	VPXORQ       Z3, Z3, Z3     \
	VPXORQ       Z4, Z4, Z4     \
	VPXORQ       Z5, Z5, Z5     \
	VPXORQ       Z6, Z6, Z6     \
	VPXORQ       Z7, Z7, Z7     \
	MOVQ         DI, R11        \
	XORQ         CX, CX         \
krow:                           \
	VBROADCASTSD (SI)(CX*1), Z8 \
	VMULPD       (R11), Z8, Z24 \
	VMULPD       64(R11), Z8, Z25 \
	VMULPD       128(R11), Z8, Z26 \
	VMULPD       192(R11), Z8, Z27 \
	VADDPD       Z24, Z0, Z0    \
	VADDPD       Z25, Z1, Z1    \
	VADDPD       Z26, Z2, Z2    \
	VADDPD       Z27, Z3, Z3    \
	VMULPD       256(R11), Z8, Z24 \
	VMULPD       320(R11), Z8, Z25 \
	VMULPD       384(R11), Z8, Z26 \
	VMULPD       448(R11), Z8, Z27 \
	VADDPD       Z24, Z4, Z4    \
	VADDPD       Z25, Z5, Z5    \
	VADDPD       Z26, Z6, Z6    \
	VADDPD       Z27, Z7, Z7    \
	ADDQ         R9, R11        \
	ADDQ         $8, CX         \
	CMPQ         CX, R8         \
	JLT          krow

// DOTSSUM16 adds the magnitudes of the 16 float32 values V, of columns
// 16h … 16h+15 of a pass, into the float64 lane sums LO (columns
// 16h … 16h+7) and HI (16h+8 … 16h+15): each lane converts its value
// without its sign to float64 and adds it only where the value is not NaN
// and K1 (column ≠ skip) is set. Uses Z24..Z26, K3 and K4.
#define DOTSSUM16(V, LO, HI) \
	VPANDD        dotsAbsMaskS<>(SB), V, Z24 \
	VCMPPS        $7, Z24, Z24, K1, K3       \
	KSHIFTRW      $8, K3, K4                 \
	VCVTPS2PD     Y24, Z25                   \
	VEXTRACTF64X4 $1, Z24, Y26               \
	VCVTPS2PD     Y26, Z26                   \
	VADDPD        Z25, LO, K3, LO            \
	VADDPD        Z26, HI, K4, HI

// func dotsMaxAVX512(x, b *float64, k, n, skip int, absMask uint32, vals *[64]float32, idx *[64]int32, sums *[32]float64)
//
// Each pass forms the products of x with 64 columns (DOTS64), rounds them
// to float32 and ANDs them with absMask (0x7fffffff clears the sign, all
// ones keeps it). Columns 16h … 16h+15 of the pass then sit in Z(2h), lane
// l holding column 16h+l, and Z(9+h) keeps, lane by lane, the largest
// value seen so far with its column in Z(13+h): a lane takes the new value
// only where it is greater (ordered compare, so NaN never wins) and its
// column is not skip, so each lane holds the first column of its largest
// value. The 64 lanes are stored to vals and idx for the caller to reduce.
//
// With sums non-nil, Z28..Z31 also keep DotsArgMaxSum's 32 lane sums
// (DOTSSUM16), column c in lane c mod 32: columns 0 … 31 of a pass go to
// Z28..Z31 before columns 32 … 63, so each lane adds its columns in
// ascending order. They are stored to *sums at the end.
TEXT ·dotsMaxAVX512(SB), NOSPLIT, $0-72
	MOVQ x+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ k+16(FP), R8
	SHLQ $3, R8            // R8 = k·8
	MOVQ n+24(FP), R9
	MOVQ R9, R10
	SHRQ $6, R10           // R10 = passes left
	SHLQ $3, R9            // R9 = n·8, one block row in bytes

	MOVQ         skip+32(FP), AX
	VPBROADCASTD AX, Z22
	MOVL         absMask+40(FP), AX
	VPBROADCASTD AX, Z23
	MOVL         $0xff800000, AX // −∞
	VPBROADCASTD AX, Z9
	VMOVAPS      Z9, Z10
	VMOVAPS      Z9, Z11
	VMOVAPS      Z9, Z12
	MOVL         $-1, AX
	VPBROADCASTD AX, Z13
	VMOVDQA32    Z13, Z14
	VMOVDQA32    Z13, Z15
	VMOVDQA32    Z13, Z16
	VMOVDQU32    dotsIota<>(SB), Z17 // columns of the first pass
	MOVL         $16, AX
	VPBROADCASTD AX, Z24
	VPADDD       Z24, Z17, Z18
	VPADDD       Z24, Z18, Z19
	VPADDD       Z24, Z19, Z20
	MOVL         $64, AX
	VPBROADCASTD AX, Z21
	MOVQ         sums+64(FP), DX
	VPXORQ       Z28, Z28, Z28
	VPXORQ       Z29, Z29, Z29
	VPXORQ       Z30, Z30, Z30
	VPXORQ       Z31, Z31, Z31

pass:
	DOTS64

	VCVTPD2PS    Z0, Y0
	VCVTPD2PS    Z1, Y1
	VINSERTF64X4 $1, Y1, Z0, Z0
	VPANDD       Z23, Z0, Z0
	VPCMPD       $4, Z22, Z17, K1      // column ≠ skip
	VCMPPS       $0x1e, Z9, Z0, K1, K2 // and value > best (GT_OQ)
	VMOVAPS      Z0, K2, Z9
	VMOVDQA32    Z17, K2, Z13
	TESTQ        DX, DX
	JZ           sum0
	DOTSSUM16(Z0, Z28, Z29)

sum0:

	VCVTPD2PS    Z2, Y2
	VCVTPD2PS    Z3, Y3
	VINSERTF64X4 $1, Y3, Z2, Z2
	VPANDD       Z23, Z2, Z2
	VPCMPD       $4, Z22, Z18, K1
	VCMPPS       $0x1e, Z10, Z2, K1, K2
	VMOVAPS      Z2, K2, Z10
	VMOVDQA32    Z18, K2, Z14
	TESTQ        DX, DX
	JZ           sum1
	DOTSSUM16(Z2, Z30, Z31)

sum1:

	VCVTPD2PS    Z4, Y4
	VCVTPD2PS    Z5, Y5
	VINSERTF64X4 $1, Y5, Z4, Z4
	VPANDD       Z23, Z4, Z4
	VPCMPD       $4, Z22, Z19, K1
	VCMPPS       $0x1e, Z11, Z4, K1, K2
	VMOVAPS      Z4, K2, Z11
	VMOVDQA32    Z19, K2, Z15
	TESTQ        DX, DX
	JZ           sum2
	DOTSSUM16(Z4, Z28, Z29)

sum2:

	VCVTPD2PS    Z6, Y6
	VCVTPD2PS    Z7, Y7
	VINSERTF64X4 $1, Y7, Z6, Z6
	VPANDD       Z23, Z6, Z6
	VPCMPD       $4, Z22, Z20, K1
	VCMPPS       $0x1e, Z12, Z6, K1, K2
	VMOVAPS      Z6, K2, Z12
	VMOVDQA32    Z20, K2, Z16
	TESTQ        DX, DX
	JZ           sum3
	DOTSSUM16(Z6, Z30, Z31)

sum3:

	VPADDD Z21, Z17, Z17
	VPADDD Z21, Z18, Z18
	VPADDD Z21, Z19, Z19
	VPADDD Z21, Z20, Z20
	ADDQ   $512, DI        // the next 64 columns
	DECQ   R10
	JNZ    pass

	MOVQ      vals+48(FP), AX
	VMOVUPS   Z9, (AX)
	VMOVUPS   Z10, 64(AX)
	VMOVUPS   Z11, 128(AX)
	VMOVUPS   Z12, 192(AX)
	MOVQ      idx+56(FP), AX
	VMOVDQU32 Z13, (AX)
	VMOVDQU32 Z14, 64(AX)
	VMOVDQU32 Z15, 128(AX)
	VMOVDQU32 Z16, 192(AX)
	TESTQ     DX, DX
	JZ        done
	VMOVUPD   Z28, (DX)
	VMOVUPD   Z29, 64(DX)
	VMOVUPD   Z30, 128(DX)
	VMOVUPD   Z31, 192(DX)

done:
	VZEROUPPER
	RET

// func absDotsAVX512(dst *float32, x, b *float64, k, n int)
//
// Each pass forms the products of x with 64 columns (DOTS64), clears their
// signs, rounds them to float32 and stores them to dst. VMAXPS against
// zero returns its second operand, the zero, where the value is NaN, and
// the value itself otherwise, since a value without its sign is never
// below +0.
TEXT ·absDotsAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ k+24(FP), R8
	SHLQ $3, R8
	MOVQ n+32(FP), R9
	MOVQ R9, R10
	SHRQ $6, R10
	SHLQ $3, R9

	MOVQ         $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z23
	VPXORQ       Z9, Z9, Z9 // +0

abspass:
	DOTS64

	VPANDQ    Z23, Z0, Z0
	VPANDQ    Z23, Z1, Z1
	VPANDQ    Z23, Z2, Z2
	VPANDQ    Z23, Z3, Z3
	VPANDQ    Z23, Z4, Z4
	VPANDQ    Z23, Z5, Z5
	VPANDQ    Z23, Z6, Z6
	VPANDQ    Z23, Z7, Z7
	VCVTPD2PS Z0, Y0
	VCVTPD2PS Z1, Y1
	VCVTPD2PS Z2, Y2
	VCVTPD2PS Z3, Y3
	VCVTPD2PS Z4, Y4
	VCVTPD2PS Z5, Y5
	VCVTPD2PS Z6, Y6
	VCVTPD2PS Z7, Y7
	VMAXPS    Y9, Y0, Y0
	VMAXPS    Y9, Y1, Y1
	VMAXPS    Y9, Y2, Y2
	VMAXPS    Y9, Y3, Y3
	VMAXPS    Y9, Y4, Y4
	VMAXPS    Y9, Y5, Y5
	VMAXPS    Y9, Y6, Y6
	VMAXPS    Y9, Y7, Y7
	VMOVUPS   Y0, (DX)
	VMOVUPS   Y1, 32(DX)
	VMOVUPS   Y2, 64(DX)
	VMOVUPS   Y3, 96(DX)
	VMOVUPS   Y4, 128(DX)
	VMOVUPS   Y5, 160(DX)
	VMOVUPS   Y6, 192(DX)
	VMOVUPS   Y7, 224(DX)
	ADDQ      $256, DX
	ADDQ      $512, DI
	DECQ      R10
	JNZ       abspass

	VZEROUPPER
	RET

// Float32 lane offsets 0 … 7 and the steps of the AVX kernel's column
// indices, which it keeps as float32 (exact below 2²⁴ columns).
DATA dotsIotaF<>+0(SB)/4, $0.0
DATA dotsIotaF<>+4(SB)/4, $1.0
DATA dotsIotaF<>+8(SB)/4, $2.0
DATA dotsIotaF<>+12(SB)/4, $3.0
DATA dotsIotaF<>+16(SB)/4, $4.0
DATA dotsIotaF<>+20(SB)/4, $5.0
DATA dotsIotaF<>+24(SB)/4, $6.0
DATA dotsIotaF<>+28(SB)/4, $7.0
GLOBL dotsIotaF<>(SB), RODATA|NOPTR, $32
DATA dotsEightF<>+0(SB)/4, $8.0
GLOBL dotsEightF<>(SB), RODATA|NOPTR, $4
DATA dotsThirtyTwoF<>+0(SB)/4, $32.0
GLOBL dotsThirtyTwoF<>(SB), RODATA|NOPTR, $4

// Every bit of a float64 but its sign.
DATA dotsAbsMaskD<>+0(SB)/8, $0x7fffffffffffffff
GLOBL dotsAbsMaskD<>(SB), RODATA|NOPTR, $8

// DOTS32Y is DOTS64 on 256-bit vectors: the products of x[0:k] with the 32
// columns of the block at DI accumulate in Y0..Y7, four columns per
// register, one column per lane, each a VMULPD rounded before its VADDPD
// from a zero start. SI = &x[0], R8 = k·8, R9 = n·8; uses R11, CX and
// Y8..Y10.
#define DOTS32Y \
	VXORPD       Y0, Y0, Y0     \
	VXORPD       Y1, Y1, Y1     \
	VXORPD       Y2, Y2, Y2     \
	VXORPD       Y3, Y3, Y3     \
	VXORPD       Y4, Y4, Y4     \
	VXORPD       Y5, Y5, Y5     \
	VXORPD       Y6, Y6, Y6     \
	VXORPD       Y7, Y7, Y7     \
	MOVQ         DI, R11        \
	XORQ         CX, CX         \
krowy:                          \
	VBROADCASTSD (SI)(CX*1), Y8 \
	VMULPD       (R11), Y8, Y9  \
	VMULPD       32(R11), Y8, Y10 \
	VADDPD       Y9, Y0, Y0     \
	VADDPD       Y10, Y1, Y1    \
	VMULPD       64(R11), Y8, Y9 \
	VMULPD       96(R11), Y8, Y10 \
	VADDPD       Y9, Y2, Y2     \
	VADDPD       Y10, Y3, Y3    \
	VMULPD       128(R11), Y8, Y9 \
	VMULPD       160(R11), Y8, Y10 \
	VADDPD       Y9, Y4, Y4     \
	VADDPD       Y10, Y5, Y5    \
	VMULPD       192(R11), Y8, Y9 \
	VMULPD       224(R11), Y8, Y10 \
	VADDPD       Y9, Y6, Y6     \
	VADDPD       Y10, Y7, Y7    \
	ADDQ         R9, R11        \
	ADDQ         $8, CX         \
	CMPQ         CX, R8         \
	JLT          krowy

// DOTSMAXGROUP folds eight float32 values V, of the columns whose indices
// (as float32) are in CUR, into the lanes at OFF(AX) (values) and OFF(BX)
// (indices): a lane takes the new value and index where the value is
// greater (ordered compare, so NaN never wins) and the column is not the
// skipped one in Y14. Uses Y8..Y10.
#define DOTSMAXGROUP(V, CUR, OFF) \
	VMOVUPS   OFF(AX), Y8         \
	VCMPPS    $0x1e, Y8, V, Y9    \
	VCMPPS    $4, Y14, CUR, Y10   \
	VANDPS    Y10, Y9, Y9         \
	VBLENDVPS Y9, V, Y8, Y8       \
	VMOVUPS   Y8, OFF(AX)         \
	VMOVUPS   OFF(BX), Y10        \
	VBLENDVPS Y9, CUR, Y10, Y10   \
	VMOVUPS   Y10, OFF(BX)

// DOTSSUMGROUP adds the magnitudes of eight float32 values V, of the
// columns whose indices (as float32) are in CUR, into the float64 lane
// sums at LO(DX) (the first four columns) and HI(DX) (the last four): a
// value without its sign, zeroed where it is NaN or its column is the
// skipped one in Y14, converted to float64. Uses Y8..Y10.
#define DOTSSUMGROUP(V, CUR, LO, HI) \
	VANDPS       dotsAbsMaskS<>(SB), V, Y8 \
	VCMPPS       $7, Y8, Y8, Y9            \
	VCMPPS       $4, Y14, CUR, Y10         \
	VANDPS       Y10, Y9, Y9               \
	VANDPS       Y9, Y8, Y8                \
	VCVTPS2PD    X8, Y9                    \
	VADDPD       LO(DX), Y9, Y9            \
	VMOVUPD      Y9, LO(DX)                \
	VEXTRACTF128 $1, Y8, X8                \
	VCVTPS2PD    X8, Y8                    \
	VADDPD       HI(DX), Y8, Y8            \
	VMOVUPD      Y8, HI(DX)

// func dotsMaxAVX(x, b *float64, k, n int, skip float32, absMask uint32, vals, idx *[32]float32, sums *[32]float64)
//
// dotsMaxAVX512 on 256-bit vectors for CPUs with AVX but not AVX-512:
// each pass forms 32 columns' products (DOTS32Y), rounds them to float32,
// ANDs them with absMask and folds them into the 32 lanes of vals and idx,
// which the caller fills with −∞ and −1 first. Only sixteen vector
// registers exist here, so the lanes live in memory, and column indices
// are float32 so that AVX alone (no AVX2 integer ops) can compare and
// blend them. With sums non-nil, each pass also adds its 32 magnitudes
// into DotsArgMaxSum's lanes in *sums (DOTSSUMGROUP), column c in lane
// c mod 32; adding +0 where a column does not count leaves a lane as
// skipping it would, since a sum started at +0 is never −0.
TEXT ·dotsMaxAVX(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ k+16(FP), R8
	SHLQ $3, R8
	MOVQ n+24(FP), R9
	MOVQ R9, R10
	SHRQ $5, R10           // R10 = 32-column passes left
	SHLQ $3, R9
	MOVQ vals+40(FP), AX
	MOVQ idx+48(FP), BX
	MOVQ sums+56(FP), DX

	VBROADCASTSS skip+32(FP), Y14
	VBROADCASTSS absMask+36(FP), Y15
	VMOVUPS      dotsIotaF<>(SB), Y13     // columns of the first group
	VBROADCASTSS dotsEightF<>(SB), Y12
	VBROADCASTSS dotsThirtyTwoF<>(SB), Y11

passy:
	DOTS32Y

	VCVTPD2PSY  Y0, X0
	VCVTPD2PSY  Y1, X1
	VINSERTF128 $1, X1, Y0, Y0 // columns 0 … 7 of the pass
	VCVTPD2PSY  Y2, X2
	VCVTPD2PSY  Y3, X3
	VINSERTF128 $1, X3, Y2, Y2 // 8 … 15
	VCVTPD2PSY  Y4, X4
	VCVTPD2PSY  Y5, X5
	VINSERTF128 $1, X5, Y4, Y4 // 16 … 23
	VCVTPD2PSY  Y6, X6
	VCVTPD2PSY  Y7, X7
	VINSERTF128 $1, X7, Y6, Y6 // 24 … 31
	VANDPS      Y15, Y0, Y0
	VANDPS      Y15, Y2, Y2
	VANDPS      Y15, Y4, Y4
	VANDPS      Y15, Y6, Y6

	DOTSMAXGROUP(Y0, Y13, 0)
	VADDPS Y12, Y13, Y1
	DOTSMAXGROUP(Y2, Y1, 32)
	VADDPS Y12, Y1, Y3
	DOTSMAXGROUP(Y4, Y3, 64)
	VADDPS Y12, Y3, Y5
	DOTSMAXGROUP(Y6, Y5, 96)

	TESTQ DX, DX
	JZ    nosumy
	DOTSSUMGROUP(Y0, Y13, 0, 32)
	DOTSSUMGROUP(Y2, Y1, 64, 96)
	DOTSSUMGROUP(Y4, Y3, 128, 160)
	DOTSSUMGROUP(Y6, Y5, 192, 224)

nosumy:

	VADDPS Y11, Y13, Y13
	ADDQ   $256, DI        // the next 32 columns
	DECQ   R10
	JNZ    passy

	VZEROUPPER
	RET

// func absDotsAVX(dst *float32, x, b *float64, k, n int)
//
// absDotsAVX512 on 256-bit vectors, 32 columns per pass (DOTS32Y).
TEXT ·absDotsAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ k+24(FP), R8
	SHLQ $3, R8
	MOVQ n+32(FP), R9
	MOVQ R9, R10
	SHRQ $5, R10
	SHLQ $3, R9

	VBROADCASTSD dotsAbsMaskD<>(SB), Y15
	VXORPS       X14, X14, X14 // +0

abspassy:
	DOTS32Y

	VANDPD     Y15, Y0, Y0
	VANDPD     Y15, Y1, Y1
	VANDPD     Y15, Y2, Y2
	VANDPD     Y15, Y3, Y3
	VANDPD     Y15, Y4, Y4
	VANDPD     Y15, Y5, Y5
	VANDPD     Y15, Y6, Y6
	VANDPD     Y15, Y7, Y7
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y1, X1
	VCVTPD2PSY Y2, X2
	VCVTPD2PSY Y3, X3
	VCVTPD2PSY Y4, X4
	VCVTPD2PSY Y5, X5
	VCVTPD2PSY Y6, X6
	VCVTPD2PSY Y7, X7
	VMAXPS     X14, X0, X0
	VMAXPS     X14, X1, X1
	VMAXPS     X14, X2, X2
	VMAXPS     X14, X3, X3
	VMAXPS     X14, X4, X4
	VMAXPS     X14, X5, X5
	VMAXPS     X14, X6, X6
	VMAXPS     X14, X7, X7
	VMOVUPS    X0, (DX)
	VMOVUPS    X1, 16(DX)
	VMOVUPS    X2, 32(DX)
	VMOVUPS    X3, 48(DX)
	VMOVUPS    X4, 64(DX)
	VMOVUPS    X5, 80(DX)
	VMOVUPS    X6, 96(DX)
	VMOVUPS    X7, 112(DX)
	ADDQ       $128, DX
	ADDQ       $256, DI
	DECQ       R10
	JNZ        abspassy

	VZEROUPPER
	RET

// func subWidenedAVX512(dst *float64, src *float32, n int)
//
// dst[i] −= float64(src[i]) for i < n, eight per step: VCVTPS2PD widens
// exactly, and one VSUBPD rounds each difference as the scalar loop does.
TEXT ·subWidenedAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

subloop:
	VCVTPS2PD (SI)(AX*4), Z0
	VMOVUPD   (DI)(AX*8), Z1
	VSUBPD    Z0, Z1, Z1
	VMOVUPD   Z1, (DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLT       subloop

	VZEROUPPER
	RET
