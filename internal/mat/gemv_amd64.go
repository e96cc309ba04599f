package mat

// hasAVX reports whether this CPU and OS run 256-bit AVX code: CPUID
// advertises AVX and OSXSAVE, and XCR0 shows the OS saving the XMM and YMM
// register state. hasAVX512 reports the same for 512-bit AVX-512F code:
// CPUID leaf 7 advertises AVX512F, and XCR0 also shows the opmask and the
// full ZMM register state saved. Both are read once, at package init.
var (
	hasAVX    = cpuHasAVX()
	hasAVX512 = hasAVX && cpuHasAVX512()
)

func cpuHasAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	xcr0, _ := xgetbv()
	return xcr0&xmmYmm == xmmYmm
}

// cpuHasAVX512 assumes cpuHasAVX, which checked OSXSAVE for xgetbv.
func cpuHasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const avx512f = 1 << 16
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx512f == 0 {
		return false
	}
	const opmaskZmm = 1<<5 | 1<<6 | 1<<7 // k0–k7, ZMM0–15 upper halves, ZMM16–31
	xcr0, _ := xgetbv()
	return xcr0&opmaskZmm == opmaskZmm
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0. Call it only when CPUID
// reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// mulBias4x4 writes dk[i] = bias[i] + Σ_j a[i·m+j]·xp[4j+k] for the four
// snapshots k and rows i in [0, rows): a is the row-major operator, xp the
// four snapshots' readings packed j-major (xp[4j+k] = reading j of
// snapshot k). rows must be a positive multiple of 4 and m positive. With
// seeded set each sum starts at bias[i], as MulVecSeededBatchInto's do.
//
//go:noescape
func mulBias4x4(d0, d1, d2, d3, bias, a, xp *float64, rows, m int, seeded bool)

// mulBias8x8 is mulBias4x4 for eight snapshots in AVX-512 registers:
// xp[8j+k] = reading j of snapshot k, and rows must be a positive multiple
// of 8.
//
//go:noescape
func mulBias8x8(d0, d1, d2, d3, d4, d5, d6, d7, bias, a, xp *float64, rows, m int, seeded bool)

// summaryBlocksAVX is summaryBlocksGeneric(x[0:n], st) on 256-bit vectors
// (summary_amd64.s); n must be a positive multiple of summaryLanes.
//
//go:noescape
func summaryBlocksAVX(x *float64, n int, st *laneStats)

// maxSets4AVX runs MaxSets.MaxInto's scan over the first groups groups of
// four sets (maxsets_amd64.s), writing 4·groups maxima to dst.
//
//go:noescape
func maxSets4AVX(dst, x *float64, idx *int32, groups, length int)

// dotsMaxAVX512 runs DotsArgMax's scan over the n columns of the K-major
// block b (dots_amd64.s), leaving each of its 64 lanes' largest value and
// first column (−1 when none) in vals and idx, and with sums non-nil
// adding DotsArgMaxSum's lanes into *sums.
//
//go:noescape
func dotsMaxAVX512(x, b *float64, k, n, skip int, absMask uint32, vals *[DotsWidth]float32, idx *[DotsWidth]int32, sums *[DotsSumLanes]float64)

// absDotsAVX512 is absDotsGeneric on 512-bit vectors (dots_amd64.s).
//
//go:noescape
func absDotsAVX512(dst *float32, x, b *float64, k, n int)

// dotsMaxAVX is dotsMaxAVX512 on 256-bit vectors (dots_amd64.s), its 32
// lanes' largest values and first columns (as float32, −1 when none) in
// vals and idx, which the caller fills with −∞ and −1 first.
//
//go:noescape
func dotsMaxAVX(x, b *float64, k, n int, skip float32, absMask uint32, vals, idx *[dotsLanesAVX]float32, sums *[DotsSumLanes]float64)

// absDotsAVX is absDotsGeneric on 256-bit vectors (dots_amd64.s).
//
//go:noescape
func absDotsAVX(dst *float32, x, b *float64, k, n int)

// rotateAVX512 is rotateGeneric on 512-bit vectors (rotate_amd64.s); n
// must be a positive multiple of 8.
//
//go:noescape
func rotateAVX512(x, y *float64, n int, c, s float64)

// subWidenedAVX512 is subWidenedGeneric on 512-bit vectors (dots_amd64.s);
// n must be a positive multiple of 8.
//
//go:noescape
func subWidenedAVX512(dst *float64, src *float32, n int)
