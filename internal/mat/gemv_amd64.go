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
// snapshot k). rows must be a positive multiple of 4 and m positive.
//
//go:noescape
func mulBias4x4(d0, d1, d2, d3, bias, a, xp *float64, rows, m int)

// mulBias8x8 is mulBias4x4 for eight snapshots in AVX-512 registers:
// xp[8j+k] = reading j of snapshot k, and rows must be a positive multiple
// of 8.
//
//go:noescape
func mulBias8x8(d0, d1, d2, d3, d4, d5, d6, d7, bias, a, xp *float64, rows, m int)

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
