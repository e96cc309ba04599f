package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m×n matrix A with m ≥ n:
// A = Q·R with Q m×n having orthonormal columns (thin Q) and R n×n upper
// triangular.
type QR struct {
	qr   *Matrix   // packed factors: R in the upper triangle, reflectors below
	tau  []float64 // reflector scalars
	m, n int
}

// NewQR factors a (which must have Rows ≥ Cols) by Householder reflections.
// a is not modified.
func NewQR(a *Matrix) *QR {
	m, n := a.Dims()
	if m < n {
		panic("mat: QR requires rows >= cols")
	}
	at := a.T()
	tau := householder(at.data, m, n)
	return &QR{qr: at.T(), tau: tau, m: m, n: n}
}

// householder factors the m×n matrix held column-major in qc (column j is
// qc[j*m:(j+1)*m]) in place, leaving the packed factors column-major: R's
// strict upper triangle above the diagonal, R's diagonal on it, and
// reflector k's sub-diagonal part below it in column k. It returns the
// reflector scalars (reflector k's diagonal element; 0 for a zero column,
// whose reflector is skipped).
//
// Walking columns as contiguous slices is the whole point of the layout;
// the operations and their order are the textbook row-major loop's, so the
// factors are bit-identical to it. Each reflector meets the columns right
// of it four per pass (reflect4): every column keeps its own dot product
// and its own update, so the four add chains overlap instead of waiting on
// one another.
func householder(qc []float64, m, n int) []float64 {
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		ck := qc[k*m : (k+1)*m]
		// Build the Householder reflector annihilating column k below the
		// diagonal: v = x ± ‖x‖e₁, H = I − 2vvᵀ/‖v‖².
		var norm float64
		for _, x := range ck[k:] {
			norm = math.Hypot(norm, x)
		}
		if norm == 0 {
			continue
		}
		// Give norm the sign of the pivot so the reflector diagonal
		// v_k = x_k/norm + 1 stays away from zero (JAMA convention).
		if ck[k] < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			ck[i] = ck[i] / norm
		}
		ck[k] += 1
		tau[k] = ck[k]
		// Apply the reflector to the remaining columns.
		v := ck[k+1:]
		col := func(j int) []float64 { return qc[j*m+k : (j+1)*m] }
		j := k + 1
		for ; j+4 <= n; j += 4 {
			reflect4(tau[k], v, col(j), col(j+1), col(j+2), col(j+3))
		}
		for ; j < n; j++ {
			reflect(tau[k], v, col(j))
		}
		ck[k] = -norm // store R's diagonal (negated signed column norm)
	}
	return tau
}

// reflect applies a Householder reflector to column c: with the
// reflector's diagonal element d and its sub-diagonal part v (c[0] meets
// d, c[i+1] meets v[i]), s = −(d·c[0] + Σ v[i]·c[i+1])/d, the sum taken in
// that order from +0, then c[0] += s·d and c[i+1] += s·v[i].
func reflect(d float64, v, c []float64) {
	c, cv := c[:1], c[1:len(v)+1]
	var s float64
	s += d * c[0]
	for i, vi := range v {
		s += vi * cv[i]
	}
	s = -s / d
	c[0] += s * d
	for i, vi := range v {
		cv[i] += s * vi
	}
}

// reflect4 is reflect on four columns at once, each with its own sum.
func reflect4(d float64, v, c0, c1, c2, c3 []float64) {
	n := len(v)
	v0, v1, v2, v3 := c0[1:n+1], c1[1:n+1], c2[1:n+1], c3[1:n+1]
	var s0, s1, s2, s3 float64
	s0 += d * c0[0]
	s1 += d * c1[0]
	s2 += d * c2[0]
	s3 += d * c3[0]
	for i, vi := range v {
		s0 += vi * v0[i]
		s1 += vi * v1[i]
		s2 += vi * v2[i]
		s3 += vi * v3[i]
	}
	s0, s1, s2, s3 = -s0/d, -s1/d, -s2/d, -s3/d
	c0[0] += s0 * d
	c1[0] += s1 * d
	c2[0] += s2 * d
	c3[0] += s3 * d
	for i, vi := range v {
		v0[i] += s0 * vi
		v1[i] += s1 * vi
		v2[i] += s2 * vi
		v3[i] += s3 * vi
	}
}

// householderQT returns the thin Q of householder's column-major factors
// transposed: row j of the n×m result is Q's column j, built by applying
// the reflectors in reverse order to the unit vector e_j.
//
// Column j starts at reflector j: every reflector k > j meets only +0
// entries of e_j (indices ≥ k > j), so its sum is +0 and each update adds
// ±0 to +0, which leaves the +0 — skipping those reflectors is exact for
// finite factors. The columns are built four per pass (reflect4), and the
// blocks of four, independent of one another, go to all CPUs for large
// factors. A block's cost grows with its first column, so the blocks are
// dealt out small and large alternately (0, last, 1, last−1, …) to give
// each contiguous chunk an even share.
func householderQT(qc, tau []float64, m, n int) *Matrix {
	qt := New(n, m)
	workers := 0
	if m*n*n < ParallelThreshold/4 {
		workers = 1
	}
	blocks := (n + 3) / 4
	ParallelChunks(blocks, workers, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			b := p / 2
			if p%2 == 1 {
				b = blocks - 1 - p/2
			}
			householderColumns(qt.data, 4*b, min(4*b+4, n), qc, tau, m)
		}
	})
	return qt
}

// householderColumns writes Q's columns j0 … j1−1 (at most four) into rows
// j0 … j1−1 of qt (n×m, zero on entry there).
func householderColumns(qt []float64, j0, j1 int, qc, tau []float64, m int) {
	col := func(j, k int) []float64 { return qt[j*m+k : (j+1)*m] }
	for j := j0; j < j1; j++ {
		qt[j*m+j] = 1
	}
	for k := j1 - 1; k >= 0; k-- {
		tk := tau[k]
		if tk == 0 {
			continue
		}
		v := qc[k*m+k+1 : (k+1)*m]
		if k <= j0 && j1-j0 == 4 {
			reflect4(tk, v, col(j0, k), col(j0+1, k), col(j0+2, k), col(j0+3, k))
			continue
		}
		for j := max(j0, k); j < j1; j++ {
			reflect(tk, v, col(j, k))
		}
	}
}

// reflector returns element i of reflector k (diagonal element is tau[k]).
func (f *QR) reflector(i, k int) float64 {
	if i == k {
		return f.tau[k]
	}
	return f.qr.At(i, k)
}

// SolveInto is the allocation-free form of Solve: it writes the length-n
// least-squares solution of A·x ≈ b into dst, using work (length m) as
// scratch. b is not modified. It returns ErrSingular if R is rank-deficient
// to working precision.
func (f *QR) SolveInto(dst, b, work []float64) error {
	if len(b) != f.m || len(work) != f.m {
		panic(ErrShape)
	}
	if len(dst) != f.n {
		panic(ErrShape)
	}
	// y = Qᵀb, computed in work by applying the Householder reflectors.
	copy(work, b)
	for k := 0; k < f.n; k++ {
		if f.tau[k] == 0 {
			continue
		}
		var s float64
		for i := k; i < f.m; i++ {
			s += f.reflector(i, k) * work[i]
		}
		s = -s / f.tau[k]
		for i := k; i < f.m; i++ {
			work[i] += s * f.reflector(i, k)
		}
	}
	// Back-substitution on R into dst.
	tol := f.rankTol()
	for i := f.n - 1; i >= 0; i-- {
		d := f.qr.At(i, i)
		if math.Abs(d) <= tol {
			return ErrSingular
		}
		s := work[i]
		for j := i + 1; j < f.n; j++ {
			s -= f.qr.At(i, j) * dst[j]
		}
		dst[i] = s / d
	}
	return nil
}

// Rank returns the numerical rank estimated from R's diagonal.
func (f *QR) Rank() int {
	tol := f.rankTol()
	rank := 0
	for i := 0; i < f.n; i++ {
		if math.Abs(f.qr.At(i, i)) > tol {
			rank++
		}
	}
	return rank
}

// rankTol returns the diagonal magnitude below which R is treated as
// rank-deficient: max(m,n)·ε·max|R_ii|.
func (f *QR) rankTol() float64 {
	var maxDiag float64
	for i := 0; i < f.n; i++ {
		if a := math.Abs(f.qr.At(i, i)); a > maxDiag {
			maxDiag = a
		}
	}
	dim := f.m
	if f.n > dim {
		dim = f.n
	}
	return float64(dim) * 2.220446049250313e-16 * maxDiag
}

// Factors returns copies of the packed factorization (R in the upper
// triangle, reflector columns below) and the reflector scalars — the full
// state of the factorization, for serialization. RestoreQR rebuilds an
// identical QR from them.
func (f *QR) Factors() (packed *Matrix, tau []float64) {
	return f.qr.Clone(), append([]float64(nil), f.tau...)
}

// Dims returns the factored matrix's shape (rows, cols).
func (f *QR) Dims() (m, n int) { return f.m, f.n }

// RestoreQR rebuilds a QR from factors previously obtained with Factors.
// Both inputs are copied. Because the reflector sweep of SolveInto reads
// only these values, a restored factorization solves bit-identically to the
// one it was captured from. Impossible shapes return an error rather than
// panicking, so callers decoding untrusted bytes can reject them.
func RestoreQR(packed *Matrix, tau []float64) (*QR, error) {
	m, n := packed.Dims()
	if m < n {
		return nil, fmt.Errorf("mat: restore QR: %d×%d has fewer rows than columns", m, n)
	}
	if len(tau) != n {
		return nil, fmt.Errorf("mat: restore QR: %d reflector scalars for %d columns", len(tau), n)
	}
	return &QR{qr: packed.Clone(), tau: append([]float64(nil), tau...), m: m, n: n}, nil
}

// Orthonormalize replaces the columns of a with an orthonormal basis of their
// span (thin Q of the QR factorization). Returns the basis as a new matrix.
func Orthonormalize(a *Matrix) *Matrix {
	return orthonormalizeT(a.T()).T()
}

// orthonormalizeT is Orthonormalize on transposed storage: the rows of the
// n×m at are the columns to orthonormalize, and row j of the result is the
// basis's column j. at is overwritten with the factorization.
func orthonormalizeT(at *Matrix) *Matrix {
	n, m := at.Dims()
	if m < n {
		panic("mat: QR requires rows >= cols")
	}
	return householderQT(at.data, householder(at.data, m, n), m, n)
}
