package mat

// BLAS-2/3 style products: straightforward row-streaming triple loops for
// the small and one-off products of the pipeline, including, through their
// write-into forms, the Kalman tracker's K- and M-sized per-step products.
// The products that dominate a run do not go through them: the estimate
// and govern routes and the design-time Gram, covariance and correlation
// builds use the blocked batch kernel MulVecBiasBatchInto (gemv.go), which
// forms four dot products at a time on contiguous rows and, on amd64, in
// 256-bit vector registers.

// MulVec returns m·x.
func MulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.rows)
	MulVecInto(out, m, x)
	return out
}

// MulVecInto is the allocation-free form of MulVec: it writes m·x into dst
// (length m.Rows()).
func MulVecInto(dst []float64, m *Matrix, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(ErrShape)
	}
	for i := range dst {
		dst[i] = Dot(m.data[i*m.cols:(i+1)*m.cols], x)
	}
}

// MulVecT returns mᵀ·x without materializing the transpose.
func MulVecT(m *Matrix, x []float64) []float64 {
	if len(x) != m.rows {
		panic(ErrShape)
	}
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		AXPY(x[i], m.Row(i), out)
	}
	return out
}

// Mul returns a·b.
func Mul(a, b *Matrix) *Matrix {
	out := New(a.rows, b.cols)
	MulInto(out, a, b)
	return out
}

// MulInto is the allocation-free form of Mul: it overwrites dst
// (a.Rows()×b.Cols(), aliasing neither a nor b) with a·b.
func MulInto(dst, a, b *Matrix) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(ErrShape)
	}
	clear(dst.data)
	n := b.cols
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			AXPY(av, b.data[k*n:(k+1)*n], orow)
		}
	}
}

// MulTA returns aᵀ·b without materializing aᵀ.
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

// MulTB returns a·bᵀ without materializing bᵀ.
func MulTB(a, b *Matrix) *Matrix {
	out := New(a.rows, b.rows)
	MulTBInto(out, a, b)
	return out
}

// MulTBInto is the allocation-free form of MulTB: it overwrites dst
// (a.Rows()×b.Rows(), aliasing neither a nor b) with a·bᵀ.
func MulTBInto(dst, a, b *Matrix) {
	if a.cols != b.cols || dst.rows != a.rows || dst.cols != b.rows {
		panic(ErrShape)
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*b.rows : (i+1)*b.rows]
		for j := range orow {
			orow[j] = Dot(arow, b.data[j*b.cols:(j+1)*b.cols])
		}
	}
}

// Gram returns aᵀ·a (the column Gram matrix), exploiting symmetry.
func Gram(a *Matrix) *Matrix {
	out := New(a.cols, a.cols)
	for r := 0; r < a.rows; r++ {
		row := a.Row(r)
		for i, vi := range row {
			if vi == 0 {
				continue
			}
			orow := out.Row(i)
			for j := i; j < len(row); j++ {
				orow[j] += vi * row[j]
			}
		}
	}
	// Mirror the upper triangle into the lower.
	for i := 0; i < out.rows; i++ {
		for j := i + 1; j < out.cols; j++ {
			out.data[j*out.cols+i] = out.data[i*out.cols+j]
		}
	}
	return out
}

// RowGram returns a·aᵀ (the row Gram matrix), exploiting symmetry.
func RowGram(a *Matrix) *Matrix {
	out := New(a.rows, a.rows)
	for i := 0; i < a.rows; i++ {
		ri := a.Row(i)
		for j := i; j < a.rows; j++ {
			v := Dot(ri, a.Row(j))
			out.data[i*out.cols+j] = v
			out.data[j*out.cols+i] = v
		}
	}
	return out
}
