package mat

// BLAS-2/3 style products: straightforward row-streaming triple loops for
// the small and one-off products of the pipeline. The products that
// dominate a run do not go through them: the serving path and the
// design-time Gram, covariance and correlation builds use the blocked batch
// kernel MulVecBiasBatchInto (gemv.go), which forms four dot products at a
// time on contiguous rows and, on amd64, in 256-bit vector registers.

// MulVec returns m·x.
func MulVec(m *Matrix, x []float64) []float64 {
	if len(x) != m.cols {
		panic(ErrShape)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
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
	if a.cols != b.rows {
		panic(ErrShape)
	}
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			AXPY(av, b.Row(k), orow)
		}
	}
	return out
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
	if a.cols != b.cols {
		panic(ErrShape)
	}
	out := New(a.rows, b.rows)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.rows; j++ {
			orow[j] = Dot(arow, b.Row(j))
		}
	}
	return out
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
