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
// into dst, which may alias b.
func (c *Cholesky) SolveInto(dst, b []float64) {
	n := c.l.Rows()
	if len(b) != n || len(dst) != n {
		panic(ErrShape)
	}
	x, l := dst, c.l.data
	copy(x, b)
	// L y = b
	for i := 0; i < n; i++ {
		row := l[i*n : i*n+i+1]
		s := x[i]
		for j, v := range row[:i] {
			s -= v * x[j]
		}
		x[i] = s / row[i]
	}
	// Lᵀ x = y
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= l[j*n+i] * x[j]
		}
		x[i] = s / l[i*n+i]
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
