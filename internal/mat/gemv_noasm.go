//go:build !amd64

package mat

// hasAVX and hasAVX512 are false off amd64: the generic kernels serve
// every batch and every summary, and the vector kernels below never run.
const (
	hasAVX    = false
	hasAVX512 = false
)

func mulBias4x4(d0, d1, d2, d3, bias, a, xp *float64, rows, m int) {
	panic("mat: no AVX serving kernel on this platform")
}

func mulBias8x8(d0, d1, d2, d3, d4, d5, d6, d7, bias, a, xp *float64, rows, m int) {
	panic("mat: no AVX-512 serving kernel on this platform")
}

func summaryBlocksAVX(x *float64, n int, st *laneStats) {
	panic("mat: no AVX summary kernel on this platform")
}

func maxSets4AVX(dst, x *float64, idx *int32, groups, length int) {
	panic("mat: no AVX max-sets kernel on this platform")
}
