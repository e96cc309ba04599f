package mat

// BLAS-2/3 style products for the small and one-off products of the
// pipeline, including, through their write-into forms, the Kalman
// tracker's K- and M-sized per-step products. MulInto, MulLowerInto and
// MulTBInto are register-blocked: each pass keeps four output entries of a
// row in registers, and every entry still starts at +0 and adds its
// products in ascending inner index, one rounding per multiply and per
// add, so the bits are those of the one-entry-at-a-time forms they
// replaced (TestMulIntoBitIdenticalToReference). The products that dominate
// a run do not go through them: the estimate and govern routes and the
// design-time Gram, covariance, Rayleigh–Ritz and lift products use the
// blocked batch kernel MulVecBiasBatchInto (gemv.go), which forms four dot
// products at a time on contiguous rows and, on amd64, in 256-bit or
// 512-bit vector registers.

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
// (a.Rows()×b.Cols(), aliasing neither a nor b) with a·b. Entry (i, j) is
// Σ_k a[i][k]·b[k][j] summed from +0 in ascending k, skipping every k with
// a[i][k] == 0.
func MulInto(dst, a, b *Matrix) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(ErrShape)
	}
	n := b.cols
	for i := 0; i < a.rows; i++ {
		mulRowInto(dst.data[i*n:(i+1)*n], a.data[i*a.cols:(i+1)*a.cols], b)
	}
}

// MulLowerInto is MulInto for a square product that only its lower
// triangle is read from, such as a matrix Cholesky.Factorize is given: it
// writes the entries (i, j ≤ i) of a·b into dst, each with MulInto's bits,
// and leaves dst's strict upper triangle as it was.
func MulLowerInto(dst, a, b *Matrix) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols || a.rows != b.cols {
		panic(ErrShape)
	}
	n := b.cols
	for i := 0; i < a.rows; i++ {
		mulRowInto(dst.data[i*n:i*n+i+1], a.data[i*a.cols:(i+1)*a.cols], b)
	}
}

// mulRowInto writes out[j] = Σ_k arow[k]·b[k][j] for the first len(out)
// columns j of b, four columns per pass, each summed from +0 in ascending
// k over the nonzero arow[k].
func mulRowInto(out, arow []float64, b *Matrix) {
	n, bd := b.cols, b.data
	j := 0
	for ; j+4 <= len(out); j += 4 {
		var s0, s1, s2, s3 float64
		for k, av := range arow {
			if av == 0 {
				continue
			}
			bk := bd[k*n+j : k*n+j+4 : k*n+j+4]
			s0 += av * bk[0]
			s1 += av * bk[1]
			s2 += av * bk[2]
			s3 += av * bk[3]
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < len(out); j++ {
		var s float64
		for k, av := range arow {
			if av != 0 {
				s += av * bd[k*n+j]
			}
		}
		out[j] = s
	}
}

// MulTBInto overwrites dst (a.Rows()×b.Rows(), aliasing neither a nor b)
// with a·bᵀ without materializing bᵀ. Entry (i, j) is Dot(a.Row(i),
// b.Row(j)), and four of a row's entries are formed per pass.
func MulTBInto(dst, a, b *Matrix) {
	if a.cols != b.cols || dst.rows != a.rows || dst.cols != b.rows {
		panic(ErrShape)
	}
	k := a.cols
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := dst.data[i*b.rows : (i+1)*b.rows]
		j := 0
		for ; j+4 <= len(orow); j += 4 {
			b0 := b.data[j*k : (j+1)*k]
			b1 := b.data[(j+1)*k : (j+2)*k]
			b2 := b.data[(j+2)*k : (j+3)*k]
			b3 := b.data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for l, av := range arow {
				s0 += av * b0[l]
				s1 += av * b1[l]
				s2 += av * b2[l]
				s3 += av * b3[l]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < len(orow); j++ {
			orow[j] = Dot(arow, b.data[j*k:(j+1)*k])
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
