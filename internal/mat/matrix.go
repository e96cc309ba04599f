// Package mat implements the dense linear algebra needed by the EigenMaps
// pipeline: matrix/vector arithmetic, Householder QR and least squares,
// symmetric eigendecomposition, singular values and condition numbers,
// Cholesky factorization, and block subspace iteration for extracting the
// leading eigenpairs of a snapshot covariance without forming it.
//
// Matrices are dense, row-major, float64. The package is self-contained
// (stdlib only) and deterministic: all randomized routines take an explicit
// *rand.Rand.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
//
// The zero value is an empty 0×0 matrix. Use New, NewFromData or the
// factory helpers to construct one.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, element (i,j) at data[i*cols+j]
}

// ErrShape reports incompatible matrix dimensions.
var ErrShape = errors.New("mat: incompatible matrix shapes")

// ErrSingular reports a numerically singular system.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// New returns a zero-filled r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromData wraps data (row-major, length r*c) in a Matrix without copying.
// The caller must not alias data afterwards unless aliasing is intended.
func NewFromData(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Matrix{rows: r, cols: c, data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic(indexError{i, j, m.rows, m.cols})
	}
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic(indexError{i, j, m.rows, m.cols})
	}
	m.data[i*m.cols+j] = v
}

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic(indexError{i, j, m.rows, m.cols})
	}
	m.data[i*m.cols+j] += v
}

// Row returns a view of row i (no copy). Mutating the returned slice mutates
// the matrix.
func (m *Matrix) Row(i int) []float64 {
	if uint(i) >= uint(m.rows) {
		panic(indexError{i, -1, m.rows, m.cols})
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// indexError is the panic value of an out-of-range At, Set, Add or Row
// (j < 0 for Row). It is formatted only when printed, so the accessors'
// one check stays cheap enough for the compiler to inline them (pinned by
// TestAccessorsInline).
type indexError struct{ i, j, rows, cols int }

func (e indexError) Error() string {
	if e.j < 0 {
		return fmt.Sprintf("mat: row %d out of range %d", e.i, e.rows)
	}
	return fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", e.i, e.j, e.rows, e.cols)
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// rowViews returns a view of every row (no copy), for the batch kernels.
func (m *Matrix) rowViews() [][]float64 {
	out := make([][]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols : (i+1)*m.cols]
	}
	return out
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d != cols %d", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// SetCol copies v into column j.
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d != rows %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Matrix{rows: m.rows, cols: m.cols, data: d}
}

// Data returns the underlying row-major slice (no copy).
func (m *Matrix) Data() []float64 { return m.data }

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// SubMatrix subtracts b element-wise from m (m -= b) and returns m.
func (m *Matrix) SubMatrix(b *Matrix) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic(ErrShape)
	}
	for i, v := range b.data {
		m.data[i] -= v
	}
	return m
}

// SelectRows returns a new matrix whose rows are m's rows at the given
// indices, in order. Indices may repeat.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	out := New(len(idx), m.cols)
	for k, i := range idx {
		copy(out.Row(k), m.Row(i))
	}
	return out
}

// SelectCols returns a new matrix whose columns are m's columns at the given
// indices, in order.
func (m *Matrix) SelectCols(idx []int) *Matrix {
	out := New(m.rows, len(idx))
	for i := 0; i < m.rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for k, j := range idx {
			dst[k] = src[j]
		}
	}
	return out
}

// Slice returns a copy of the sub-matrix rows [r0,r1) × cols [c0,c1).
func (m *Matrix) Slice(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: slice [%d:%d,%d:%d] out of range %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.Row(i)[c0:c1])
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	// Two-pass scaling to avoid overflow on large entries.
	var maxAbs float64
	for _, v := range m.data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s float64
	for _, v := range m.data {
		r := v / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// Equal reports whether m and b have identical shape and every pair of
// elements differs by at most tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("mat.Matrix(%dx%d, ‖·‖F=%.4g)", m.rows, m.cols, m.FrobeniusNorm())
	}
	s := fmt.Sprintf("mat.Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
