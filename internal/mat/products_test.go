package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bit-identity pins for the register-blocked products and the multi-row
// Cholesky solve against their one-entry-at-a-time forms in
// reference_test.go. Every size below that is not a multiple of 4 leaves a
// column, row or right-hand-side tail, and the operands carry IEEE corner
// cases: signed zeros, subnormals, and ±1e300, whose products overflow.

// productSizes straddle the four-wide column and right-hand-side blocks.
var productSizes = []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 17}

// zeroedVec is edgeVec with about one entry in three an exact ±0, so
// MulInto's skip of a zero left factor runs often, between nonzero ones.
func zeroedVec(rng *rand.Rand, n int) []float64 {
	v := edgeVec(rng, n)
	for i := range v {
		switch rng.Intn(6) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		}
	}
	return v
}

func TestMulIntoBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, rows := range productSizes {
		for _, inner := range []int{1, 3, 4, 7, 8, 12} {
			for _, cols := range productSizes {
				a := NewFromData(rows, inner, zeroedVec(rng, rows*inner))
				b := NewFromData(inner, cols, edgeVec(rng, inner*cols))
				got, want := New(rows, cols), New(rows, cols)
				garbage(got.data)
				MulInto(got, a, b)
				refMulInto(want, a, b)
				sameMatrixBits(t, fmt.Sprintf("MulInto %dx%d·%dx%d", rows, inner, inner, cols), got, want)
			}
		}
	}
}

func TestMulTBIntoBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, rows := range productSizes {
		for _, inner := range []int{1, 3, 4, 7, 8, 12} {
			for _, cols := range productSizes {
				a := NewFromData(rows, inner, zeroedVec(rng, rows*inner))
				b := NewFromData(cols, inner, zeroedVec(rng, cols*inner))
				got, want := New(rows, cols), New(rows, cols)
				garbage(got.data)
				MulTBInto(got, a, b)
				refMulTBInto(want, a, b)
				sameMatrixBits(t, fmt.Sprintf("MulTBInto %dx%d·(%dx%d)ᵀ", rows, inner, cols, inner), got, want)
			}
		}
	}
}

// solveCase is a Cholesky holding a random lower-triangular factor of
// order n with a positive diagonal and, below it, exact ±0s, subnormals
// and the other edge values, one entry in three.
func solveCase(rng *rand.Rand, n int) *Cholesky {
	l := New(n, n)
	for i := 0; i < n; i++ {
		copy(l.Row(i)[:i], zeroedVec(rng, i))
		l.Set(i, i, 0.5+rng.Float64())
	}
	return &Cholesky{l: l}
}

func TestSolveIntoBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range productSizes {
		c := solveCase(rng, n)
		for trial := 0; trial < 8; trial++ {
			b := edgeVec(rng, n)
			want := make([]float64, n)
			refSolveInto(c, want, b)
			got := make([]float64, n)
			garbage(got)
			c.SolveInto(got, b)
			sameBits(t, fmt.Sprintf("SolveInto n=%d", n), got, want)
			c.SolveInto(b, b)
			sameBits(t, fmt.Sprintf("aliased SolveInto n=%d", n), b, want)
		}
	}
}

// SolveRowsInto against SolveInto's reference row by row, on row counts
// that leave every tail of the four-row blocks, into a dirty destination
// and aliased onto its right-hand sides.
func TestSolveRowsIntoBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range productSizes {
		c := solveCase(rng, n)
		for _, rows := range productSizes {
			rhs := NewFromData(rows, n, edgeVec(rng, rows*n))
			want := New(rows, n)
			for r := 0; r < rows; r++ {
				refSolveInto(c, want.Row(r), rhs.Row(r))
			}
			got := New(rows, n)
			garbage(got.data)
			c.SolveRowsInto(got, rhs)
			shape := fmt.Sprintf("SolveRowsInto n=%d rows=%d", n, rows)
			sameMatrixBits(t, shape, got, want)
			c.SolveRowsInto(rhs, rhs)
			sameMatrixBits(t, "aliased "+shape, rhs, want)
		}
	}
}

// MulLowerInto writes MulInto's bits on and below the diagonal and leaves
// the strict upper triangle as it was.
func TestMulLowerIntoBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range productSizes {
		for _, inner := range []int{1, 3, 4, 7, 8, 12} {
			a := NewFromData(n, inner, zeroedVec(rng, n*inner))
			b := NewFromData(inner, n, edgeVec(rng, inner*n))
			want := New(n, n)
			refMulInto(want, a, b)
			got := New(n, n)
			garbage(got.data)
			MulLowerInto(got, a, b)
			for i := 0; i < n; i++ {
				what := fmt.Sprintf("MulLowerInto %dx%d·%dx%d row %d", n, inner, inner, n, i)
				sameBits(t, what, got.Row(i)[:i+1], want.Row(i)[:i+1])
				for j := i + 1; j < n; j++ {
					if v := got.At(i, j); !math.IsNaN(v) {
						t.Fatalf("%s: wrote %v above the diagonal at column %d", what, v, j)
					}
				}
			}
		}
	}
}
