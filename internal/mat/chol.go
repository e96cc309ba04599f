package mat

import "math"

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix A = L·Lᵀ.
//
// The zero value holds no factor; Factorize fills it.
type Cholesky struct {
	l *Matrix
}

// NewCholesky factors the symmetric positive-definite matrix a.
// It returns ErrSingular if a is not positive definite to working precision.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Factorize(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factorize overwrites c with the factor of the symmetric positive-definite
// matrix a, reading only a's lower triangle. It reuses c's storage when a
// has the order of c's previous factor, so refactoring same-order matrices
// allocates nothing. It returns ErrSingular if a is not positive definite to
// working precision; c must then not be used to solve until a later
// Factorize succeeds.
func (c *Cholesky) Factorize(a *Matrix) error {
	n, cols := a.Dims()
	if n != cols {
		panic("mat: Cholesky requires a square matrix")
	}
	if c.l == nil || c.l.rows != n {
		c.l = New(n, n)
	}
	l, ad := c.l.data, a.data
	for j := 0; j < n; j++ {
		var d float64
		lrow := l[j*n : (j+1)*n]
		for k := 0; k < j; k++ {
			var s float64
			krow := l[k*n : (k+1)*n]
			for i := 0; i < k; i++ {
				s += krow[i] * lrow[i]
			}
			s = (ad[j*n+k] - s) / krow[k]
			lrow[k] = s
			d += s * s
		}
		d = ad[j*n+j] - d
		if d <= 0 || math.IsNaN(d) {
			return ErrSingular
		}
		lrow[j] = math.Sqrt(d)
	}
	return nil
}

// Solve returns x with A·x = b via forward/back substitution.
func (c *Cholesky) Solve(b []float64) []float64 {
	x := make([]float64, len(b))
	c.SolveInto(x, b)
	return x
}

// SolveInto is the allocation-free form of Solve: it writes x with A·x = b
// into dst, which may alias b. It is SolveRowsInto's one-row case.
func (c *Cholesky) SolveInto(dst, b []float64) {
	n := c.l.Rows()
	if len(b) != n || len(dst) != n {
		panic(ErrShape)
	}
	copy(dst, b)
	c.solveRow(dst)
}

// SolveRowsInto solves A·x = b for every row b of rhs, writing each x to
// the same row of dst, which may alias rhs: dst = rhs·A⁻¹ for the symmetric
// A. It advances four right-hand sides together through the forward and
// back substitutions, and each row gets SolveInto's operations in
// SolveInto's order, so its bits are SolveInto's.
func (c *Cholesky) SolveRowsInto(dst, rhs *Matrix) {
	n := c.l.Rows()
	if rhs.cols != n || dst.cols != n || dst.rows != rhs.rows {
		panic(ErrShape)
	}
	copy(dst.data, rhs.data)
	x := dst.data
	r := 0
	for ; r+4 <= dst.rows; r += 4 {
		c.solveRows4(x[r*n:(r+1)*n], x[(r+1)*n:(r+2)*n], x[(r+2)*n:(r+3)*n], x[(r+3)*n:(r+4)*n])
	}
	for ; r < dst.rows; r++ {
		c.solveRow(x[r*n : (r+1)*n])
	}
}

// solveRow overwrites x, of length n, with A⁻¹x: the forward substitution
// L·y = x, then the back substitution Lᵀ·x = y.
func (c *Cholesky) solveRow(x []float64) {
	n, l := c.l.rows, c.l.data
	for i := 0; i < n; i++ {
		row := l[i*n : i*n+i+1]
		s := x[i]
		for j, v := range row[:i] {
			s -= v * x[j]
		}
		x[i] = s / row[i]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= l[j*n+i] * x[j]
		}
		x[i] = s / l[i*n+i]
	}
}

// solveRows4 is solveRow on four right-hand sides at once, each entry of L
// loaded once for all four.
func (c *Cholesky) solveRows4(x0, x1, x2, x3 []float64) {
	n, l := c.l.rows, c.l.data
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i := 0; i < n; i++ {
		row := l[i*n : i*n+i+1]
		s0, s1, s2, s3 := x0[i], x1[i], x2[i], x3[i]
		for j, v := range row[:i] {
			s0 -= v * x0[j]
			s1 -= v * x1[j]
			s2 -= v * x2[j]
			s3 -= v * x3[j]
		}
		d := row[i]
		x0[i], x1[i], x2[i], x3[i] = s0/d, s1/d, s2/d, s3/d
	}
	for i := n - 1; i >= 0; i-- {
		s0, s1, s2, s3 := x0[i], x1[i], x2[i], x3[i]
		for j := i + 1; j < n; j++ {
			v := l[j*n+i]
			s0 -= v * x0[j]
			s1 -= v * x1[j]
			s2 -= v * x2[j]
			s3 -= v * x3[j]
		}
		d := l[i*n+i]
		x0[i], x1[i], x2[i], x3[i] = s0/d, s1/d, s2/d, s3/d
	}
}

// SolveSPD is a convenience wrapper: factor a and solve a·x = b.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	c, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return c.Solve(b), nil
}
