package mat

import (
	"fmt"
	"math"
	"sort"
)

// Reference kernels: the element-wise formulations the create-path kernels
// replaced, kept verbatim (At/Set on row-major matrices, the MulPar/MulTAPar
// covariance apply) so the bit-identity pins in kernels_test.go compare the
// contiguous rewrites against the exact arithmetic they must reproduce.

// refSymEigen is the row-major tred2/tql2 SymEigen.
func refSymEigen(a *Matrix) (*Eigen, error) {
	n, c := a.Dims()
	if n != c {
		panic("mat: SymEigen requires a square matrix")
	}
	if n == 0 {
		return &Eigen{Values: nil, Vectors: New(0, 0)}, nil
	}
	v := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v.Set(i, j, 0.5*(a.At(i, j)+a.At(j, i)))
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	refTred2(v, d, e)
	if err := refTql2(v, d, e); err != nil {
		return nil, err
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(p, q int) bool { return d[idx[p]] > d[idx[q]] })
	values := make([]float64, n)
	vectors := New(n, n)
	for k, i := range idx {
		values[k] = d[i]
		for r := 0; r < n; r++ {
			vectors.Set(r, k, v.At(r, i))
		}
	}
	return &Eigen{Values: values, Vectors: vectors}, nil
}

func refTred2(v *Matrix, d, e []float64) {
	n := v.Rows()
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
				v.Set(j, i, 0)
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
			for j := 0; j < i; j++ {
				f = d[j]
				v.Set(j, i, f)
				g = e[j] + v.At(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += v.At(k, j) * d[k]
					e[k] += v.At(k, j) * f
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
				for k := j; k <= i-1; k++ {
					v.Set(k, j, v.At(k, j)-(f*e[k]+g*d[k]))
				}
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	for i := 0; i < n-1; i++ {
		v.Set(n-1, i, v.At(i, i))
		v.Set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v.At(k, i+1) / h
			}
			for j := 0; j <= i; j++ {
				var g float64
				for k := 0; k <= i; k++ {
					g += v.At(k, i+1) * v.At(k, j)
				}
				for k := 0; k <= i; k++ {
					v.Set(k, j, v.At(k, j)-g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			v.Set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
		v.Set(n-1, j, 0)
	}
	v.Set(n-1, n-1, 1)
	e[0] = 0
}

func refTql2(v *Matrix, d, e []float64) error {
	const maxIter = 64
	n := v.Rows()
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	var f, tst1 float64
	eps := math.Pow(2, -52)
	for l := 0; l < n; l++ {
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
					for k := 0; k < n; k++ {
						h = v.At(k, i+1)
						v.Set(k, i+1, s*v.At(k, i)+c*h)
						v.Set(k, i, c*v.At(k, i)-s*h)
					}
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

// refQR is the row-major Householder factorization: packed factors and
// reflector scalars exactly as NewQR stored them.
func refQR(a *Matrix) (packed *Matrix, tau []float64) {
	m, n := a.Dims()
	q := a.Clone()
	tau = make([]float64, n)
	for k := 0; k < n; k++ {
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, q.At(i, k))
		}
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if q.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			q.Set(i, k, q.At(i, k)/norm)
		}
		q.Add(k, k, 1)
		tau[k] = q.At(k, k)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += q.At(i, k) * q.At(i, j)
			}
			s = -s / q.At(k, k)
			for i := k; i < m; i++ {
				q.Add(i, j, s*q.At(i, k))
			}
		}
		q.Set(k, k, -norm)
	}
	return q, tau
}

// refQ builds the thin Q from refQR's factors, one unit column at a time.
func refQ(packed *Matrix, tau []float64) *Matrix {
	m, n := packed.Dims()
	reflector := func(i, k int) float64 {
		if i == k {
			return tau[k]
		}
		return packed.At(i, k)
	}
	q := New(m, n)
	for col := 0; col < n; col++ {
		q.Set(col, col, 1)
		for k := n - 1; k >= 0; k-- {
			if tau[k] == 0 {
				continue
			}
			var s float64
			for i := k; i < m; i++ {
				s += reflector(i, k) * q.At(i, col)
			}
			s = -s / tau[k]
			for i := k; i < m; i++ {
				q.Add(i, col, s*reflector(i, k))
			}
		}
	}
	return q
}

func refOrthonormalize(a *Matrix) *Matrix { return refQ(refQR(a)) }

// refMulPar is the row-parallel a·b the covariance apply used.
func refMulPar(a, b *Matrix) *Matrix {
	out := New(a.rows, b.cols)
	ParallelChunks(a.rows, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Row(i)
			for k, av := range a.Row(i) {
				if av == 0 {
					continue
				}
				AXPY(av, b.Row(k), orow)
			}
		}
	})
	return out
}

// refMulTAPar is the output-row-parallel aᵀ·b the covariance apply used.
func refMulTAPar(a, b *Matrix) *Matrix {
	out := New(a.cols, b.cols)
	ParallelChunks(a.cols, 0, func(lo, hi int) {
		for r := 0; r < a.rows; r++ {
			arow := a.Row(r)
			brow := b.Row(r)
			for i := lo; i < hi; i++ {
				if av := arow[i]; av != 0 {
					AXPY(av, brow, out.Row(i))
				}
			}
		}
	})
	return out
}

// refApplyCov is XᵀXV/T through the two parallel products.
func refApplyCov(x, v *Matrix) *Matrix {
	xv := refMulPar(x, v)
	w := refMulTAPar(x, xv)
	return w.Scale(1 / float64(x.rows))
}

// refTopCovarianceEigen is TopCovarianceEigen on the reference kernels.
func refTopCovarianceEigen(x *Matrix, k int, opts SubspaceOptions) ([]float64, *Matrix, error) {
	opts.defaults()
	t, n := x.Dims()
	if t == 0 || n == 0 {
		return nil, New(n, 0), nil
	}
	k = min(k, n, t)
	if k <= 0 {
		return nil, New(n, 0), nil
	}
	p := max(min(k+opts.Oversample, n, t), k)
	v := refOrthonormalize(RandomMatrix(n, p, opts.Rand))
	prev := make([]float64, k)
	for i := range prev {
		prev[i] = math.Inf(1)
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		w := refApplyCov(x, v)
		eg, err := refSymEigen(MulTA(v, w))
		if err != nil {
			return nil, nil, fmt.Errorf("subspace iteration: %w", err)
		}
		maxRel := 0.0
		for i := 0; i < k; i++ {
			den := math.Abs(eg.Values[i])
			if den < 1e-300 {
				den = 1e-300
			}
			rel := math.Abs(eg.Values[i]-prev[i]) / den
			if rel > maxRel {
				maxRel = rel
			}
			prev[i] = eg.Values[i]
		}
		v = refOrthonormalize(w)
		if maxRel < opts.Tol {
			break
		}
	}
	w := refApplyCov(x, v)
	eg, err := refSymEigen(MulTA(v, w))
	if err != nil {
		return nil, nil, err
	}
	ritz := Mul(v, eg.Vectors)
	vals := make([]float64, k)
	vecs := New(n, k)
	for j := 0; j < k; j++ {
		vals[j] = eg.Values[j]
		if vals[j] < 0 {
			vals[j] = 0
		}
		for i := 0; i < n; i++ {
			vecs.Set(i, j, ritz.At(i, j))
		}
	}
	normalizeSigns(vecs)
	return vals, vecs, nil
}

// MulTA returns aᵀ·b without materializing aᵀ: the row-streaming AXPY
// product the snapshot-Gram lift (liftTA) and the Rayleigh–Ritz matrix
// (covApply.rayleigh) must reproduce.
func MulTA(a, b *Matrix) *Matrix {
	if a.rows != b.rows {
		panic(ErrShape)
	}
	out := New(a.cols, b.cols)
	for r := 0; r < a.rows; r++ {
		arow := a.Row(r)
		brow := b.Row(r)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			AXPY(av, brow, out.Row(i))
		}
	}
	return out
}

// MulTB returns a·bᵀ, one Dot per entry: the Rayleigh–Ritz product
// TopCovarianceEigen formed as MulTB(Vᵀ, Wᵀ) before covApply.rayleigh,
// and the reference MulTBInto is pinned to.
func MulTB(a, b *Matrix) *Matrix {
	out := New(a.rows, b.rows)
	MulTBInto(out, a, b)
	return out
}
