package mat

// dot4AVX returns dot4 of the n-element vectors at a and b: lane k of one
// YMM accumulator sums a[4q+k]·b[4q+k], the n%4 tail is added into lane 0
// in order, and the lanes are reduced as ((s0+s1)+s2)+s3.
//
//go:noescape
func dot4AVX(a, b *float64, n int) float64

// panelDotsAVX returns panelDotsGeneric of the m-column panel window at p
// against the m values at x, one panel row per lane: one YMM accumulator
// sums the even columns and one the odd, and the two are added at the end.
// m must be positive.
//
//go:noescape
func panelDotsAVX(p, x *float64, m int) (s0, s1, s2, s3 float64)

// panelDots2AVX writes panelDotsAVX(p, x, m) to s[0:4] and
// panelDotsAVX(p, y, m) to s[4:8], loading each panel column once for both
// vectors. m must be positive.
//
//go:noescape
func panelDots2AVX(p, x, y *float64, m int, s *[8]float64)
