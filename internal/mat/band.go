package mat

import (
	"fmt"
	"math"
)

// SymBand is a symmetric banded matrix of order n with bandwidth bw (number
// of sub-diagonals): A[i][j] may be non-zero only when |i−j| ≤ bw. Only the
// lower triangle is stored, row-major with stride bw+1: element (i, j) with
// i−bw ≤ j ≤ i lives at data[i·(bw+1) + (j−i+bw)]. Entries whose column
// index would be negative are padding and stay zero.
//
// This is the assembly format for BandCholesky: the RC thermal model's
// backward-Euler matrix has bandwidth ≈ 2·H under an interleaved ordering of
// the die/spreader layers, so banded storage keeps the O(n·bw²) factor and
// O(n·bw) solves far below their dense O(n³)/O(n²) counterparts.
type SymBand struct {
	n, bw int
	data  []float64
}

// NewSymBand returns a zero n×n symmetric band matrix with bw sub-diagonals.
// bw is clamped to n−1 (a wider band has no representable entries).
func NewSymBand(n, bw int) *SymBand {
	if n <= 0 || bw < 0 {
		panic(fmt.Sprintf("mat: invalid band shape n=%d bw=%d", n, bw))
	}
	if bw > n-1 {
		bw = n - 1
	}
	return &SymBand{n: n, bw: bw, data: make([]float64, n*(bw+1))}
}

// Set assigns element (i, j) (and, by symmetry, (j, i)). It panics if the
// entry lies outside the band.
func (a *SymBand) Set(i, j int, v float64) {
	if i < 0 || i >= a.n || j < 0 || j >= a.n {
		panic(fmt.Sprintf("mat: band index (%d,%d) outside %d×%d", i, j, a.n, a.n))
	}
	if j > i {
		i, j = j, i
	}
	if i-j > a.bw {
		panic(fmt.Sprintf("mat: entry (%d,%d) outside bandwidth %d", i, j, a.bw))
	}
	a.data[i*(a.bw+1)+(j-i+a.bw)] = v
}

// BandCholesky is the Cholesky factorization A = L·Lᵀ of a symmetric
// positive-definite band matrix. The factor inherits the bandwidth of A, so
// factoring costs O(n·bw²) and each solve O(n·bw).
//
// Solve-side layout: the factor is stored twice, once per triangular sweep
// of SolveInto, in 4-row interleaved panels of 4·(bw+4) values, so that each
// sweep streams one contiguous panel per block of four rows and a vector
// kernel can run the block's four rows in the four lanes of one register.
//
//   - The forward panel of rows i … i+3 (i = 0, 4, 8, …) starts with their
//     4×4 diagonal block, L[i+r][i+k] at 4k+r for k ≤ r, then holds the bw
//     columns c = i−bw … i−1 to their left, column c as the four values
//     (L[i][c], L[i+1][c], L[i+2][c], L[i+3][c]) at 16 + 4·(c−i+bw).
//   - The backward panel of rows i, i−1, i−2, i−3 (i = n−1, n−5, …) starts
//     with the diagonal block of Lᵀ, L[i−k][i−r] at 4k+r for k ≤ r, then
//     holds the bw columns c = i+1 … i+bw of Lᵀ to their right as
//     (L[c][i], L[c][i−1], L[c][i−2], L[c][i−3]) at 16 + 4·(c−i−1).
//
// Positions outside the band or the matrix hold zeros, so all four rows of
// a block share one window and the out-of-band positions contribute exact
// zeros, as the padding of a row layout would. The n%4 rows no panel covers
// keep SymBand's row layout: the last rows of L for the forward sweep and
// the first rows of Lᵀ for the backward one. Below bw = 8 there are no
// panels and every row is stored that way.
//
// A BandCholesky is immutable after construction and safe for concurrent
// use by any number of goroutines.
type BandCholesky struct {
	n, bw int
	nb    int       // panels per sweep: n/4, or 0 when bw < 8
	fwd   []float64 // forward panels, 4·(bw+4) values each
	bwd   []float64 // backward panels, 4·(bw+4) values each
	lrow  []float64 // rows 4·nb … n−1 of L: L[i][j] at (i−4·nb)·(bw+1) + (j−i+bw)
	urow  []float64 // rows 0 … n−4·nb−1 of Lᵀ: L[j][i] at i·(bw+1) + (j−i)
	avx   bool      // run the AVX kernels of band_amd64.s
}

// dot4 is Dot with four independent accumulators, the inner product of the
// factorization and of the rows the solve panels do not cover. Those are
// long chains of dot products whose single-accumulator form is bound by
// floating-point add latency, not throughput; four parallel sums roughly
// triple their speed. Summation order differs from Dot, so the band
// solver's results differ from a dense solve only at rounding level (the
// tests pin agreement to 1e-10).
func dot4(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// bandDot is dot4, run by the AVX kernel when avx is set. The kernel's four
// lanes are dot4's four accumulators over the same elements, with the tail
// added into lane 0 in order and the lanes reduced as ((s0+s1)+s2)+s3, so
// both return the same bits.
func bandDot(a, b []float64, avx bool) float64 {
	if avx && len(a) >= 4 && len(a) == len(b) {
		return dot4AVX(&a[0], &b[0], len(a))
	}
	return dot4(a, b)
}

// panelDotsGeneric returns the four row sums s_r = Σ_t p[4t+r]·x[t] of a
// panel window, with two accumulators per row (even and odd t) added at
// the end: four rows × one accumulator would be bound by floating-point add
// latency, eight independent chains reach add throughput. p must hold at
// least 4·len(x) values.
func panelDotsGeneric(p, x []float64) (s0, s1, s2, s3 float64) {
	p = p[:4*len(x)]
	var r0, r1, r2, r3 float64
	t := 0
	for ; t+1 < len(x); t += 2 {
		xv0, xv1 := x[t], x[t+1]
		e, o := p[4*t:4*t+4], p[4*t+4:4*t+8]
		s0 += e[0] * xv0
		r0 += o[0] * xv1
		s1 += e[1] * xv0
		r1 += o[1] * xv1
		s2 += e[2] * xv0
		r2 += o[2] * xv1
		s3 += e[3] * xv0
		r3 += o[3] * xv1
	}
	if t < len(x) {
		xv := x[t]
		e := p[4*t : 4*t+4]
		s0 += e[0] * xv
		s1 += e[1] * xv
		s2 += e[2] * xv
		s3 += e[3] * xv
	}
	return s0 + r0, s1 + r1, s2 + r2, s3 + r3
}

// NewBandCholesky factors the symmetric positive-definite band matrix a.
// It returns ErrSingular if a is not positive definite to working
// precision. a is not modified.
//
// On amd64 CPUs with AVX the inner products of the factorization and the
// panel sweeps of SolveInto run through vector kernels (band_amd64.s) that
// repeat the generic kernels' operations lane by lane in the same order, so
// the factor and every solve are bit-identical to the generic kernels'.
func NewBandCholesky(a *SymBand) (*BandCholesky, error) {
	return newBandCholesky(a, hasAVX)
}

// newBandCholesky is NewBandCholesky with the kernel chosen by the caller;
// the tests run both on the same inputs.
func newBandCholesky(a *SymBand, avx bool) (*BandCholesky, error) {
	n, bw, w := a.n, a.bw, a.bw+1
	// Factor in the tight stride-(bw+1) layout of SymBand.
	t := make([]float64, len(a.data))
	copy(t, a.data)
	for i := 0; i < n; i++ {
		ti := t[i*w : (i+1)*w]
		j0 := i - bw
		if j0 < 0 {
			j0 = 0
		}
		for j := j0; j < i; j++ {
			tj := t[j*w : (j+1)*w]
			// k ranges over the overlap of row i's and row j's bands.
			k0 := j - bw
			if k0 < j0 {
				k0 = j0
			}
			s := bandDot(ti[k0-i+bw:j-i+bw], tj[k0-j+bw:bw], avx)
			ti[j-i+bw] = (ti[j-i+bw] - s) / tj[bw]
		}
		var d float64
		for _, v := range ti[j0-i+bw : bw] {
			d += v * v
		}
		d = ti[bw] - d
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrSingular
		}
		ti[bw] = math.Sqrt(d)
	}
	// Re-lay the factor into the solve layout.
	c := &BandCholesky{n: n, bw: bw, avx: avx}
	if bw >= 8 {
		c.nb = n / 4
	}
	ps := 4 * (bw + 4)
	c.fwd = make([]float64, c.nb*ps)
	c.bwd = make([]float64, c.nb*ps)
	for k := 0; k < c.nb; k++ {
		c.packForward(k, t)
		c.packBackward(k, t)
	}
	rows := n - 4*c.nb
	c.lrow = append([]float64(nil), t[4*c.nb*w:]...)
	c.urow = make([]float64, rows*w)
	for i := 0; i < rows; i++ {
		for j := i; j <= min(n-1, i+bw); j++ {
			c.urow[i*w+j-i] = t[j*w+i-j+bw] // L[j][i]
		}
	}
	return c, nil
}

// packForward writes forward panel k, rows 4k … 4k+3 of L, from the factor
// fac in SymBand's row layout.
func (c *BandCholesky) packForward(k int, fac []float64) {
	bw, w := c.bw, c.bw+1
	p := c.fwd[k*4*(bw+4):][:4*(bw+4)]
	i := 4 * k
	for r := 0; r < 4; r++ {
		lr := fac[(i+r)*w:][:w]
		// Columns j = i−bw+t, t ≥ 0, left of the diagonal block; lr holds
		// L[i+r][j] at j−i−r+bw = t−r.
		for t := max(r, bw-i); t < bw; t++ {
			p[16+4*t+r] = lr[t-r]
		}
		for q := 0; q <= r; q++ { // the diagonal block, L[i+r][i+q]
			p[4*q+r] = lr[bw-r+q]
		}
	}
}

// packBackward writes backward panel k, rows i … i−3 of Lᵀ with
// i = n−1−4k, from the factor fac in SymBand's row layout.
func (c *BandCholesky) packBackward(k int, fac []float64) {
	n, bw, w := c.n, c.bw, c.bw+1
	p := c.bwd[k*4*(bw+4):][:4*(bw+4)]
	i := n - 1 - 4*k
	for j := i - 3; j <= i; j++ {
		lj := fac[j*w:][:w]
		for r := i - j; r < 4; r++ {
			p[4*(i-j)+r] = lj[i-r-j+bw] // L[j][i−r]
		}
	}
	for j := i + 1; j <= min(n-1, i+bw); j++ {
		lj := fac[j*w:][:w]
		q := p[16+4*(j-i-1):][:4]
		for r := 0; r < 4 && j-i+r <= bw; r++ {
			q[r] = lj[i-r-j+bw] // L[j][i−r]
		}
	}
}

// SolveInto solves A·x = b by two banded triangular substitutions, writing
// the solution into dst. dst and b may be the same slice; it allocates
// nothing. It is SolveBatchInto on one vector.
func (c *BandCholesky) SolveInto(dst, b []float64) {
	c.SolveBatchInto([][]float64{dst}, [][]float64{b})
}

// SolveBatchInto solves A·dst[v] = b[v] for every v in one pass of each
// triangular sweep over the factor, the form of LAPACK's DPBTRS with
// NRHS > 1. Each dst[v] may be b[v] itself; otherwise no two of the
// vectors may overlap. It allocates nothing.
//
// Both sweeps process four rows per pass, one panel each (see the type
// comment), so each loaded x value feeds four multiply-adds: the
// row-at-a-time sweep issues two loads per multiply-add and saturates the
// load ports long before the floating-point units. The four rows' sums over
// the panel window run in one call of panelDotsGeneric, or of its AVX
// kernel with one row per lane; only the 4×4 triangular tail is
// substituted serially. The n%4 rows outside the panels, and every row of a
// band narrower than 8, are substituted one at a time.
//
// The vectors share each panel: pairs of them go through panelDots2, which
// loads every panel column once for both, and an odd one out through
// panelDots while the panel is still in cache. A solve reads the whole
// factor (about 12 MB on the 60×56 die) for work proportional to it, so one
// sweep for several vectors costs far less than a sweep per vector. Every
// vector's own operations run in SolveInto's order, so each dst[v] is
// bit-identical to SolveInto(dst[v], b[v]).
func (c *BandCholesky) SolveBatchInto(dst, b [][]float64) {
	n, bw, w := c.n, c.bw, c.bw+1
	if len(dst) != len(b) {
		panic(ErrShape)
	}
	for v := range dst {
		if len(dst[v]) != n || len(b[v]) != n {
			panic(ErrShape)
		}
	}
	ps := 4 * (bw + 4)
	var s [8]float64
	// Forward: L·y = b (y accumulates in dst).
	for k := 0; k < c.nb; k++ {
		i := 4 * k
		lo := max(0, i-bw)
		p := c.fwd[k*ps : (k+1)*ps]
		win := p[16+4*(lo-i+bw):]
		v := 0
		for ; v+1 < len(dst); v += 2 {
			x, y := dst[v], dst[v+1]
			c.panelDots2(win, x[lo:i], y[lo:i], &s)
			forward4(p, s[0], s[1], s[2], s[3], b[v][i:i+4], x[i:i+4])
			forward4(p, s[4], s[5], s[6], s[7], b[v+1][i:i+4], y[i:i+4])
		}
		if v < len(dst) {
			x := dst[v]
			s0, s1, s2, s3 := c.panelDots(win, x[lo:i])
			forward4(p, s0, s1, s2, s3, b[v][i:i+4], x[i:i+4])
		}
	}
	for i := 4 * c.nb; i < n; i++ {
		lo := max(0, i-bw)
		li := c.lrow[(i-4*c.nb)*w:][:w]
		for v, x := range dst {
			x[i] = (b[v][i] - bandDot(li[bw-(i-lo):bw], x[lo:i], c.avx)) / li[bw]
		}
	}
	// Backward: Lᵀ·x = y.
	for k := 0; k < c.nb; k++ {
		i := n - 1 - 4*k
		hi := min(n-1, i+bw)
		p := c.bwd[k*ps : (k+1)*ps]
		v := 0
		for ; v+1 < len(dst); v += 2 {
			x, y := dst[v], dst[v+1]
			c.panelDots2(p[16:], x[i+1:hi+1], y[i+1:hi+1], &s)
			backward4(p, s[0], s[1], s[2], s[3], x[i-3:i+1])
			backward4(p, s[4], s[5], s[6], s[7], y[i-3:i+1])
		}
		if v < len(dst) {
			x := dst[v]
			s0, s1, s2, s3 := c.panelDots(p[16:], x[i+1:hi+1])
			backward4(p, s0, s1, s2, s3, x[i-3:i+1])
		}
	}
	for i := n - 4*c.nb - 1; i >= 0; i-- {
		hi := min(n-1, i+bw)
		ui := c.urow[i*w:][:w]
		for _, x := range dst {
			x[i] = (x[i] - bandDot(ui[1:hi-i+1], x[i+1:hi+1], c.avx)) / ui[0]
		}
	}
}

// forward4 substitutes the 4×4 diagonal block at the head of forward panel
// p for one vector: s0 … s3 are the block's four row sums over the panel
// window, b the four right-hand-side entries and x the four unknowns
// written. b and x may be the same slice.
func forward4(p []float64, s0, s1, s2, s3 float64, b, x []float64) {
	p, b, x = p[:16], b[:4], x[:4]
	x0 := (b[0] - s0) / p[0]
	s1 += p[1] * x0
	x1 := (b[1] - s1) / p[5]
	s2 += p[2]*x0 + p[6]*x1
	x2 := (b[2] - s2) / p[10]
	s3 += p[3]*x0 + p[7]*x1 + p[11]*x2
	x[0] = x0
	x[1] = x1
	x[2] = x2
	x[3] = (b[3] - s3) / p[15]
}

// backward4 substitutes the 4×4 diagonal block at the head of backward
// panel p, rows i … i−3, for one vector: s0 … s3 are the block's row sums
// over the panel window and x = dst[i−3 : i+1], read and overwritten from
// its last entry down.
func backward4(p []float64, s0, s1, s2, s3 float64, x []float64) {
	p, x = p[:16], x[:4]
	x0 := (x[3] - s0) / p[0]
	s1 += p[1] * x0
	x1 := (x[2] - s1) / p[5]
	s2 += p[6]*x1 + p[2]*x0
	x2 := (x[1] - s2) / p[10]
	s3 += p[11]*x2 + p[7]*x1 + p[3]*x0
	x[3] = x0
	x[2] = x1
	x[1] = x2
	x[0] = (x[0] - s3) / p[15]
}

// panelDots runs the panel window p against x through the factor's kernel.
func (c *BandCholesky) panelDots(p, x []float64) (s0, s1, s2, s3 float64) {
	if c.avx && len(x) > 0 {
		return panelDotsAVX(&p[0], &x[0], len(x))
	}
	return panelDotsGeneric(p, x)
}

// panelDots2 runs the panel window p against two vectors x and y of one
// length, writing panelDots(p, x) to s[0:4] and panelDots(p, y) to s[4:8]
// bit for bit. The AVX kernel loads each panel column once for both.
func (c *BandCholesky) panelDots2(p, x, y []float64, s *[8]float64) {
	if len(y) != len(x) || len(p) < 4*len(x) {
		panic(ErrShape)
	}
	if c.avx && len(x) > 0 {
		panelDots2AVX(&p[0], &x[0], &y[0], len(x), s)
		return
	}
	s[0], s[1], s[2], s[3] = panelDotsGeneric(p, x)
	s[4], s[5], s[6], s[7] = panelDotsGeneric(p, y)
}
