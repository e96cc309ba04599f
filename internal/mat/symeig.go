package mat

import (
	"errors"
	"math"
	"sort"
)

// Eigen holds a full eigendecomposition of a real symmetric matrix:
// A = V·diag(λ)·Vᵀ with orthonormal V. Eigenvalues are sorted descending,
// eigenvectors are the corresponding columns of V.
type Eigen struct {
	Values  []float64 // descending
	Vectors *Matrix   // n×n, column i pairs with Values[i]
}

// ErrNoConvergence reports that an iterative decomposition failed to converge.
var ErrNoConvergence = errors.New("mat: eigensolver failed to converge")

// SymEigen computes the eigendecomposition of symmetric a by Householder
// tridiagonalization followed by the implicit-shift QL algorithm
// (the classical tred2/tql2 pair). a is not modified.
//
// Symmetry is assumed, not checked; only the lower triangle feeds the result
// through the symmetrized copy made here.
//
// The pair runs on the transpose of the textbook work matrix: row i of the
// work array holds column i of V, so every inner loop of both passes walks
// one contiguous slice. The floating-point operations and their order are
// exactly the textbook's, so the result is bit-identical to the column-wise
// formulation (pinned against it in the tests).
func SymEigen(a *Matrix) (*Eigen, error) {
	n, c := a.Dims()
	if n != c {
		panic("mat: SymEigen requires a square matrix")
	}
	if n == 0 {
		return &Eigen{Values: nil, Vectors: New(0, 0)}, nil
	}
	// Work on a symmetrized copy so tiny asymmetries don't bias the result:
	// V(i, j) = (a(i, j) + a(j, i))/2, stored transposed (wt[j*n+i]).
	wt := make([]float64, n*n)
	ad := a.data
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			wt[j*n+i] = 0.5 * (ad[i*n+j] + ad[j*n+i])
		}
	}
	d := make([]float64, n) // diagonal of the tridiagonal form
	e := make([]float64, n) // sub-diagonal
	tred2(wt, n, d, e)
	if err := tql2(wt, n, d, e); err != nil {
		return nil, err
	}
	// tql2 leaves eigenvalues ascending-ish but unsorted in general; sort
	// descending and permute columns to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(p, q int) bool { return d[idx[p]] > d[idx[q]] })
	values := make([]float64, n)
	vectors := New(n, n)
	for k, i := range idx {
		values[k] = d[i]
		for r, x := range wt[i*n : (i+1)*n] {
			vectors.data[r*n+k] = x
		}
	}
	return &Eigen{Values: values, Vectors: vectors}, nil
}

// tred2 reduces the symmetric matrix stored in wt to tridiagonal form by
// Householder similarity transformations, accumulating the transform. wt is
// the n×n work matrix V stored transposed (wt[c*n+r] = V(r, c)). On return
// d holds the diagonal and e the sub-diagonal (e[0] = 0).
func tred2(wt []float64, n int, d, e []float64) {
	row := func(c int) []float64 { return wt[c*n : (c+1)*n] }
	for j := 0; j < n; j++ {
		d[j] = wt[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			wi := row(i)
			for j := 0; j < i; j++ {
				d[j] = wt[j*n+i-1]
				wt[j*n+i] = 0
				wi[j] = 0
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			// Apply the similarity transformation to the remaining rows.
			wi := row(i)
			for j := 0; j < i; j++ {
				f = d[j]
				wi[j] = f
				wj := row(j)
				g = e[j] + wj[j]*f
				for k := j + 1; k <= i-1; k++ {
					g += wj[k] * d[k]
					e[k] += wj[k] * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				wj := row(j)
				for k := j; k <= i-1; k++ {
					wj[k] = wj[k] - (f*e[k] + g*d[k])
				}
				d[j] = wj[i-1]
				wj[i] = 0
			}
		}
		d[i] = h
	}
	// Accumulate transformations. Row i+1 and d are read-only while rows
	// 0 … i are updated, and each row j keeps its own sum g, so the rows
	// go four per pass (accumulate4) with their add chains overlapped.
	for i := 0; i < n-1; i++ {
		wi, wi1 := row(i), row(i+1)
		wi[n-1] = wi[i]
		wi[i] = 1
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = wi1[k] / h
			}
			u, dk := wi1[:i+1], d[:i+1]
			part := func(j int) []float64 { return wt[j*n : j*n+i+1] }
			j := 0
			for ; j+4 <= i+1; j += 4 {
				accumulate4(u, dk, part(j), part(j+1), part(j+2), part(j+3))
			}
			for ; j <= i; j++ {
				wj := part(j)
				var g float64
				for k, uk := range u {
					g += uk * wj[k]
				}
				for k, dv := range dk {
					wj[k] = wj[k] - g*dv
				}
			}
		}
		for k := 0; k <= i; k++ {
			wi1[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = wt[j*n+n-1]
		wt[j*n+n-1] = 0
	}
	wt[n*n-1] = 1
	e[0] = 0
}

// accumulate4 runs tred2's accumulation step on four rows at once: for
// each row w, g = Σ u[k]·w[k] from +0 in ascending k, then
// w[k] = w[k] − g·d[k].
func accumulate4(u, d, w0, w1, w2, w3 []float64) {
	n := len(u)
	w0, w1, w2, w3, d = w0[:n], w1[:n], w2[:n], w3[:n], d[:n]
	var g0, g1, g2, g3 float64
	for k, uk := range u {
		g0 += uk * w0[k]
		g1 += uk * w1[k]
		g2 += uk * w2[k]
		g3 += uk * w3[k]
	}
	for k, dk := range d {
		w0[k] = w0[k] - g0*dk
		w1[k] = w1[k] - g1*dk
		w2[k] = w2[k] - g2*dk
		w3[k] = w3[k] - g3*dk
	}
}

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e) by the implicit
// QL method with Wilkinson shifts, accumulating eigenvectors into the
// transposed work matrix wt (row i holds eigenvector i).
func tql2(wt []float64, n int, d, e []float64) error {
	const maxIter = 64
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	var f, tst1 float64
	eps := math.Pow(2, -52)
	for l := 0; l < n; l++ {
		// Find a small sub-diagonal element to split the problem.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter >= maxIter {
					return ErrNoConvergence
				}
				// Compute the implicit Wilkinson shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// Implicit QL sweep.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				var s, s2 float64
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					// Accumulate the rotation into the eigenvectors.
					rotate(wt[i*n:(i+1)*n], wt[(i+1)*n:(i+2)*n], c, s)
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// rotate applies tql2's plane rotation to the rows x and y (equal
// lengths): with h the old y[k], y[k] = s·x[k] + c·h and
// x[k] = c·x[k] − s·h, every product rounded before its add. Where the CPU
// has AVX-512, whole blocks of eight go through rotateAVX512, which does
// the same operations lane by lane (a separate multiply and add, never
// fused), and rotateGeneric takes the rest.
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	k := 0
	if hasAVX512 && len(x) >= 8 {
		k = len(x) &^ 7
		rotateAVX512(&x[0], &y[0], k, c, s)
	}
	rotateGeneric(x[k:], y[k:], c, s)
}

// rotateGeneric is rotate element by element, the generic twin of
// rotateAVX512.
func rotateGeneric(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xk := range x {
		h := y[k]
		y[k] = s*xk + c*h
		x[k] = c*xk - s*h
	}
}

// TopK returns the leading k eigenpairs (largest eigenvalues) as a K-column
// matrix of eigenvectors plus the eigenvalue slice.
func (eg *Eigen) TopK(k int) ([]float64, *Matrix) {
	n := eg.Vectors.Rows()
	if k > len(eg.Values) {
		k = len(eg.Values)
	}
	vals := CopyVec(eg.Values[:k])
	vecs := New(n, k)
	for i := 0; i < n; i++ {
		copy(vecs.Row(i), eg.Vectors.Row(i)[:k])
	}
	return vals, vecs
}
