package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Test-only views and wrappers over the package's matrices and factors.
// The serving and create paths use the allocation-free forms; the tests
// compare those against these.

// At returns element (i, j), exploiting symmetry; entries outside the band
// are zero.
func (a *SymBand) At(i, j int) float64 {
	if i < 0 || i >= a.n || j < 0 || j >= a.n {
		panic(fmt.Sprintf("mat: band index (%d,%d) outside %d×%d", i, j, a.n, a.n))
	}
	if j > i {
		i, j = j, i
	}
	if i-j > a.bw {
		return 0
	}
	return a.data[i*(a.bw+1)+(j-i+a.bw)]
}

// Bandwidth returns the number of stored sub-diagonals.
func (a *SymBand) Bandwidth() int { return a.bw }

// Dense expands the band matrix to a dense Matrix.
func (a *SymBand) Dense() *Matrix {
	out := New(a.n, a.n)
	for i := 0; i < a.n; i++ {
		lo := i - a.bw
		if lo < 0 {
			lo = 0
		}
		for j := lo; j <= i; j++ {
			v := a.data[i*(a.bw+1)+(j-i+a.bw)]
			out.Set(i, j, v)
			out.Set(j, i, v)
		}
	}
	return out
}

// Solve returns x with A·x = b.
func (c *BandCholesky) Solve(b []float64) []float64 {
	x := make([]float64, c.n)
	c.SolveInto(x, b)
	return x
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Matrix {
	n := len(d)
	m := New(n, n)
	for i, v := range d {
		m.data[i*n+i] = v
	}
	return m
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	var out float64
	for _, v := range m.data {
		if a := math.Abs(v); a > out {
			out = a
		}
	}
	return out
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.data[i*m.cols+j]-m.data[j*m.cols+i]) > tol {
				return false
			}
		}
	}
	return true
}

// R returns the n×n upper-triangular factor. Note the diagonal entries carry
// the sign produced by the factorization (not necessarily positive).
func (f *QR) R() *Matrix {
	r := New(f.n, f.n)
	for i := 0; i < f.n; i++ {
		for j := i; j < f.n; j++ {
			r.Set(i, j, f.qr.At(i, j))
		}
	}
	return r
}

// Q returns the thin m×n orthonormal factor.
func (f *QR) Q() *Matrix {
	return householderQT(f.qr.T().data, f.tau, f.m, f.n).T()
}

// Solve returns the least-squares solution x of A·x ≈ b.
// It returns ErrSingular if R is rank-deficient to working precision.
func (f *QR) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b, make([]float64, f.m)); err != nil {
		return nil, err
	}
	return x, nil
}

// LeastSquares solves min‖A·x − b‖₂ by Householder QR.
// A must have Rows ≥ Cols and full column rank.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	return NewQR(a).Solve(b)
}

// RandomSymmetric returns a random symmetric n×n matrix with entries drawn
// from a standard normal (symmetrized).
func RandomSymmetric(n int, rng *rand.Rand) *Matrix {
	a := RandomMatrix(n, n, rng)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (a.At(i, j) + a.At(j, i))
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// SnapshotPOD is SnapshotPODWorkers with a single worker.
func SnapshotPOD(x *Matrix, k int) ([]float64, *Matrix, error) {
	return SnapshotPODWorkers(x, k, 1)
}
