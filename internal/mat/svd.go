package mat

import "math"

// SingularValues returns the singular values of a (rows ≥ cols or not) in
// descending order. They are computed as the square roots of the eigenvalues
// of the smaller Gram matrix (AᵀA or AAᵀ), which is accurate to ~√ε relative
// error — ample for the condition-number comparisons this repository makes.
func SingularValues(a *Matrix) ([]float64, error) {
	m, n := a.Dims()
	var g *Matrix
	if m >= n {
		g = Gram(a) // n×n
	} else {
		g = RowGram(a) // m×m
	}
	eg, err := SymEigen(g)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(eg.Values))
	for i, v := range eg.Values {
		if v < 0 {
			v = 0 // clamp tiny negative round-off
		}
		out[i] = math.Sqrt(v)
	}
	return out, nil
}

// Cond returns the 2-norm condition number σ_max/σ_min of a.
// It returns +Inf when the smallest singular value is zero (rank deficient).
func Cond(a *Matrix) (float64, error) {
	sv, err := SingularValues(a)
	if err != nil {
		return 0, err
	}
	if len(sv) == 0 {
		return 0, nil
	}
	smax, smin := sv[0], sv[len(sv)-1]
	// Gram-based singular values are accurate to ~√ε relative error, so a
	// σ_min at that level is indistinguishable from exact singularity.
	dim := a.Rows()
	if a.Cols() > dim {
		dim = a.Cols()
	}
	if smin <= float64(dim)*1.49e-8*smax {
		return math.Inf(1), nil
	}
	return smax / smin, nil
}
