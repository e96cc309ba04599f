package mat

import "math"

// The banded Cholesky as it was before the panel layout: the factor in
// padded row-major rows of L and of Lᵀ, swept by the scalar refQuadDot2 and
// refDot4. It is kept verbatim, renamed, as the reference the production
// factor and both of its kernels must match bit for bit
// (band_kernels_test.go).

// refBandCholesky is the Cholesky factorization A = L·Lᵀ of a symmetric
// positive-definite band matrix. The factor inherits the bandwidth of A, so
// factoring costs O(n·bw²) and each solve O(n·bw). Both triangular sweeps
// stream contiguous memory: L is stored row-major in band form and its
// transpose is materialized once at factor time so back-substitution reads
// rows of Lᵀ instead of strided columns of L.
//
// Solve-side layout: rows are stored with stride bw+4 — three zero slots
// pad each row of L before its first in-band entry and each row of Lᵀ after
// its last — so the blocked four-row sweeps of SolveInto can read a uniform
// window for all four rows with the out-of-band positions contributing
// exact zeros, instead of branching per row.
//
// A refBandCholesky is immutable after construction and safe for concurrent
// use by any number of goroutines.
type refBandCholesky struct {
	n, bw  int
	stride int       // bw + 4 (three padding slots per row)
	l      []float64 // L rows: L[i][j] at i·stride + (j−i+bw+3); diag at i·stride+bw+3
	u      []float64 // Lᵀ rows: Lᵀ[i][j]=L[j][i] at i·stride + (j−i); diag at i·stride
}

// refDot4 is Dot with four independent accumulators. The banded triangular
// sweeps are long chains of dot products whose single-accumulator form is
// bound by floating-point add latency, not throughput; four parallel sums
// roughly triple the sweep speed. Summation order differs from Dot, so the
// band solver's results differ from a dense solve only at rounding level
// (the tests pin agreement to 1e-10).
func refDot4(a, b []float64) float64 {
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

// refQuadDot2 computes the four dot products a0·x … a3·x in one pass over x,
// two elements per iteration with two accumulators per row: four rows ×
// one accumulator is bound by floating-point add latency (one chained add
// per row per iteration), eight independent chains reach add throughput.
// All five slices must have equal length.
func refQuadDot2(a0, a1, a2, a3, x []float64) (s0, s1, s2, s3 float64) {
	var r0, r1, r2, r3 float64
	t := 0
	for ; t+1 < len(x); t += 2 {
		xv0, xv1 := x[t], x[t+1]
		s0 += a0[t] * xv0
		r0 += a0[t+1] * xv1
		s1 += a1[t] * xv0
		r1 += a1[t+1] * xv1
		s2 += a2[t] * xv0
		r2 += a2[t+1] * xv1
		s3 += a3[t] * xv0
		r3 += a3[t+1] * xv1
	}
	if t < len(x) {
		xv := x[t]
		s0 += a0[t] * xv
		s1 += a1[t] * xv
		s2 += a2[t] * xv
		s3 += a3[t] * xv
	}
	return s0 + r0, s1 + r1, s2 + r2, s3 + r3
}

// refNewBandCholesky factors the symmetric positive-definite band matrix a.
// It returns ErrSingular if a is not positive definite to working
// precision. a is not modified.
func refNewBandCholesky(a *SymBand) (*refBandCholesky, error) {
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
			s := refDot4(ti[k0-i+bw:j-i+bw], tj[k0-j+bw:bw])
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
	// Re-lay the factor into the padded solve layout, plus its transpose.
	ws := bw + 4
	c := &refBandCholesky{n: n, bw: bw, stride: ws}
	c.l = make([]float64, n*ws)
	c.u = make([]float64, n*ws)
	for i := 0; i < n; i++ {
		copy(c.l[i*ws+3:i*ws+3+w], t[i*w:(i+1)*w])
		j1 := i + bw
		if j1 > n-1 {
			j1 = n - 1
		}
		for j := i; j <= j1; j++ {
			c.u[i*ws+(j-i)] = t[j*w+(i-j+bw)]
		}
	}
	return c, nil
}

// SolveInto solves A·x = b by two banded triangular substitutions, writing
// the solution into dst. dst and b may be the same slice; it allocates
// nothing.
//
// Both sweeps process four rows per pass so each loaded x value feeds four
// multiply-adds: the row-at-a-time sweep issues two loads per multiply-add
// and saturates the load ports long before the floating-point units, which
// is what bounds the per-step cost of the thermal solver. The three padding
// slots per row (see the type comment) let all four rows share one loop
// window; only the 4×4 triangular tail is substituted serially.
func (c *refBandCholesky) SolveInto(dst, b []float64) {
	n, bw, ws := c.n, c.bw, c.stride
	if len(dst) != n || len(b) != n {
		panic(ErrShape)
	}
	if bw < 8 {
		c.solveNarrow(dst, b)
		return
	}
	base := bw + 3 // diagonal offset within a padded row of l
	// Forward: L·y = b (y accumulates in dst).
	i := 0
	for ; i+3 < n; i += 4 {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		xs := dst[lo:i]
		a0 := c.l[i*ws+base-(i-lo):][:len(xs)]
		a1 := c.l[(i+1)*ws+base-(i+1-lo):][:len(xs)]
		a2 := c.l[(i+2)*ws+base-(i+2-lo):][:len(xs)]
		a3 := c.l[(i+3)*ws+base-(i+3-lo):][:len(xs)]
		s0, s1, s2, s3 := refQuadDot2(a0, a1, a2, a3, xs)
		l1 := c.l[(i+1)*ws : (i+2)*ws]
		l2 := c.l[(i+2)*ws : (i+3)*ws]
		l3 := c.l[(i+3)*ws : (i+4)*ws]
		x0 := (b[i] - s0) / c.l[i*ws+base]
		s1 += l1[base-1] * x0
		x1 := (b[i+1] - s1) / l1[base]
		s2 += l2[base-2]*x0 + l2[base-1]*x1
		x2 := (b[i+2] - s2) / l2[base]
		s3 += l3[base-3]*x0 + l3[base-2]*x1 + l3[base-1]*x2
		dst[i] = x0
		dst[i+1] = x1
		dst[i+2] = x2
		dst[i+3] = (b[i+3] - s3) / l3[base]
	}
	for ; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		li := c.l[i*ws : (i+1)*ws]
		dst[i] = (b[i] - refDot4(li[base-(i-lo):base], dst[lo:i])) / li[base]
	}
	// Backward: Lᵀ·x = y, reading contiguous rows of the transposed factor.
	i = n - 1
	for ; i >= 3; i -= 4 {
		hi := i + bw
		if hi > n-1 {
			hi = n - 1
		}
		var s0, s1, s2, s3 float64
		if m := hi - i; m > 0 {
			xs := dst[i+1 : hi+1]
			a0 := c.u[i*ws+1:][:m]
			a1 := c.u[(i-1)*ws+2:][:m]
			a2 := c.u[(i-2)*ws+3:][:m]
			a3 := c.u[(i-3)*ws+4:][:m]
			s0, s1, s2, s3 = refQuadDot2(a0, a1, a2, a3, xs)
		}
		u1 := c.u[(i-1)*ws : i*ws]
		u2 := c.u[(i-2)*ws : (i-1)*ws]
		u3 := c.u[(i-3)*ws : (i-2)*ws]
		x0 := (dst[i] - s0) / c.u[i*ws]
		s1 += u1[1] * x0
		x1 := (dst[i-1] - s1) / u1[0]
		s2 += u2[1]*x1 + u2[2]*x0
		x2 := (dst[i-2] - s2) / u2[0]
		s3 += u3[1]*x2 + u3[2]*x1 + u3[3]*x0
		dst[i] = x0
		dst[i-1] = x1
		dst[i-2] = x2
		dst[i-3] = (dst[i-3] - s3) / u3[0]
	}
	for ; i >= 0; i-- {
		hi := i + bw
		if hi > n-1 {
			hi = n - 1
		}
		ui := c.u[i*ws : (i+1)*ws]
		dst[i] = (dst[i] - refDot4(ui[1:hi-i+1], dst[i+1:hi+1])) / ui[0]
	}
}

// solveNarrow is the row-at-a-time fallback for bands too narrow for
// four-row blocking to pay off.
func (c *refBandCholesky) solveNarrow(dst, b []float64) {
	n, bw, ws := c.n, c.bw, c.stride
	base := bw + 3
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		li := c.l[i*ws : (i+1)*ws]
		dst[i] = (b[i] - refDot4(li[base-(i-lo):base], dst[lo:i])) / li[base]
	}
	for i := n - 1; i >= 0; i-- {
		hi := i + bw
		if hi > n-1 {
			hi = n - 1
		}
		ui := c.u[i*ws : (i+1)*ws]
		dst[i] = (dst[i] - refDot4(ui[1:hi-i+1], dst[i+1:hi+1])) / ui[0]
	}
}
