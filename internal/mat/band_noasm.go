//go:build !amd64

package mat

// The band kernels of band_amd64.s run only when hasAVX is set, which it
// never is off amd64.

func dot4AVX(a, b *float64, n int) float64 { panic("mat: no AVX band kernel on this platform") }

func panelDotsAVX(p, x *float64, m int) (s0, s1, s2, s3 float64) {
	panic("mat: no AVX band kernel on this platform")
}

func panelDots2AVX(p, x, y *float64, m int, s *[8]float64) {
	panic("mat: no AVX band kernel on this platform")
}
