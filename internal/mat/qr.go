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
// factors are bit-identical to it.
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
		for j := k + 1; j < n; j++ {
			cj := qc[j*m : (j+1)*m]
			var s float64
			for i := k; i < m; i++ {
				s += ck[i] * cj[i]
			}
			s = -s / ck[k]
			for i := k; i < m; i++ {
				cj[i] += s * ck[i]
			}
		}
		ck[k] = -norm // store R's diagonal (negated signed column norm)
	}
	return tau
}

// householderQT returns the thin Q of householder's column-major factors
// transposed: row j of the n×m result is Q's column j, built by applying
// the reflectors in reverse order to the unit vector e_j. The columns are
// independent, so large factors build them on all CPUs.
func householderQT(qc, tau []float64, m, n int) *Matrix {
	qt := New(n, m)
	workers := 0
	if m*n*n < ParallelThreshold/4 {
		workers = 1
	}
	ParallelChunks(n, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			householderColumn(qt.data[j*m:(j+1)*m], j, qc, tau, m, n)
		}
	})
	return qt
}

// householderColumn writes Q's column j into q (length m, zero on entry).
func householderColumn(q []float64, j int, qc, tau []float64, m, n int) {
	q[j] = 1
	for k := n - 1; k >= 0; k-- {
		tk := tau[k]
		if tk == 0 {
			continue
		}
		v := qc[k*m : (k+1)*m]
		var s float64
		s += tk * q[k]
		for i := k + 1; i < m; i++ {
			s += v[i] * q[i]
		}
		s = -s / tk
		q[k] += s * tk
		for i := k + 1; i < m; i++ {
			q[i] += s * v[i]
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
