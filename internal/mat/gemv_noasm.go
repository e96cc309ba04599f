//go:build !amd64

package mat

// hasAVX and hasAVX512 are false off amd64: the generic kernels serve
// every batch and every summary, and the vector kernels below never run.
const (
	hasAVX    = false
	hasAVX512 = false
)

func mulBias4x4(d0, d1, d2, d3, bias, a, xp *float64, rows, m int, seeded bool) {
	panic("mat: no AVX serving kernel on this platform")
}

func mulBias8x8(d0, d1, d2, d3, d4, d5, d6, d7, bias, a, xp *float64, rows, m int, seeded bool) {
	panic("mat: no AVX-512 serving kernel on this platform")
}

func summaryBlocksAVX(x *float64, n int, st *laneStats) {
	panic("mat: no AVX summary kernel on this platform")
}

func maxSets4AVX(dst, x *float64, idx *int32, groups, length int) {
	panic("mat: no AVX max-sets kernel on this platform")
}

func dotsMaxAVX512(x, b *float64, k, n, skip int, absMask uint32, vals *[DotsWidth]float32, idx *[DotsWidth]int32, sums *[DotsSumLanes]float64) {
	panic("mat: no AVX-512 dots kernel on this platform")
}

func absDotsAVX512(dst *float32, x, b *float64, k, n int) {
	panic("mat: no AVX-512 dots kernel on this platform")
}

func dotsMaxAVX(x, b *float64, k, n int, skip float32, absMask uint32, vals, idx *[dotsLanesAVX]float32, sums *[DotsSumLanes]float64) {
	panic("mat: no AVX dots kernel on this platform")
}

func absDotsAVX(dst *float32, x, b *float64, k, n int) {
	panic("mat: no AVX dots kernel on this platform")
}

func rotateAVX512(x, y *float64, n int, c, s float64) {
	panic("mat: no AVX-512 rotation kernel on this platform")
}

func subWidenedAVX512(dst *float64, src *float32, n int) {
	panic("mat: no AVX-512 subtraction kernel on this platform")
}
