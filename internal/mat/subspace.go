package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// SubspaceOptions tune TopCovarianceEigen.
type SubspaceOptions struct {
	// Tol is the relative eigenvalue-change convergence threshold on the
	// requested K pairs. Default 1e-10.
	Tol float64
	// Rand seeds the starting block. Required.
	Rand *rand.Rand
}

const (
	// subspaceOversample is the number of extra basis columns
	// TopCovarianceEigen carries beyond the requested K; they improve the
	// convergence of the trailing requested pairs.
	subspaceOversample = 16
	// subspaceMaxIter bounds TopCovarianceEigen's block power iterations.
	subspaceMaxIter = 300
)

func (o *SubspaceOptions) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
}

// TopCovarianceEigen returns the k leading eigenpairs of the sample
// covariance C = XᵀX/T of the T×N data matrix x (rows are observations,
// assumed centered), without ever forming C. It uses block orthogonal
// iteration with a final Rayleigh–Ritz rotation.
//
// Eigenvalues are returned descending; eigenvectors are the columns of the
// returned N×k matrix. Each eigenvector's sign is normalized so its
// largest-magnitude entry is positive, making results reproducible across
// random starts.
func TopCovarianceEigen(x *Matrix, k int, opts SubspaceOptions) ([]float64, *Matrix, error) {
	opts.defaults()
	if opts.Rand == nil {
		panic("mat: SubspaceOptions.Rand is required")
	}
	t, n := x.Dims()
	if t == 0 || n == 0 {
		return nil, New(n, 0), nil
	}
	if k > n {
		k = n
	}
	if k > t {
		// Covariance rank is at most T; extra pairs would be spurious.
		k = t
	}
	if k <= 0 {
		return nil, New(n, 0), nil
	}
	p := k + subspaceOversample
	if p > n {
		p = n
	}
	if p > t {
		p = t
	}
	if p < k {
		p = k
	}

	// The block lives transposed (p×N, row c is basis vector c) so every
	// product of the iteration is a batch of contiguous dot products.
	cov := newCovApply(x)
	vt := orthonormalizeT(RandomMatrix(n, p, opts.Rand).T())
	prev := make([]float64, k)
	for i := range prev {
		prev[i] = math.Inf(1)
	}
	for iter := 0; iter < subspaceMaxIter; iter++ {
		wt := cov.apply(vt)
		// Rayleigh–Ritz on the current subspace: H = VᵀW is VᵀCV.
		h := cov.rayleigh(vt, wt)
		eg, err := SymEigen(h)
		if err != nil {
			return nil, nil, fmt.Errorf("subspace iteration: %w", err)
		}
		// Convergence on the requested top-k eigenvalues.
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
		vt = orthonormalizeT(wt)
		if maxRel < opts.Tol {
			break
		}
		// Hitting subspaceMaxIter is not fatal: the final Rayleigh–Ritz step
		// below still yields the best approximation found, and thermal
		// spectra decay fast enough that the requested pairs converge long
		// before it in practice.
	}
	// Final Rayleigh–Ritz rotation to align columns with eigenvectors.
	wt := cov.apply(vt)
	h := cov.rayleigh(vt, wt)
	eg, err := SymEigen(h)
	if err != nil {
		return nil, nil, fmt.Errorf("subspace iteration (final rotation): %w", err)
	}
	ritz := Mul(vt.T(), eg.Vectors) // N×p, columns ordered by descending eigenvalue
	vals := make([]float64, k)
	vecs := New(n, k)
	for j := 0; j < k; j++ {
		vals[j] = eg.Values[j]
		if vals[j] < 0 {
			vals[j] = 0
		}
	}
	for i := 0; i < n; i++ {
		copy(vecs.Row(i), ritz.Row(i)[:k])
	}
	normalizeSigns(vecs)
	return vals, vecs, nil
}

// covApply applies the sample covariance C = XᵀX/T of a T×N data matrix to
// a transposed block without forming C: given Vᵀ (p×N) it returns (CV)ᵀ.
// Both products run through MulVecBiasBatchInto against a zero bias, on X
// and on Xᵀ (transposed once per training run), so each output element is
// one contiguous dot product accumulated in ascending index order from +0 —
// the same sum the row-streaming AXPY formulation forms, minus its skipped
// exact-zero terms. Dropping those is exact for finite data: a product with
// a zero factor is ±0, and a sum started at +0 is never −0, so adding ±0
// leaves it unchanged.
type covApply struct {
	x, xt *Matrix
	zero  []float64 // the bias of both products
	scale float64   // 1/T
}

func newCovApply(x *Matrix) *covApply {
	return &covApply{x: x, xt: x.T(), zero: make([]float64, max(x.rows, x.cols)), scale: 1 / float64(x.rows)}
}

// apply returns (CV)ᵀ for vt = Vᵀ: first (XV)ᵀ (p×T), whose row c is X
// times basis vector c, then (Xᵀ·XV)ᵀ (p×N), scaled by 1/T. Each block of
// four basis vectors is independent of the others, so the blocks fan out
// over the CPUs.
func (c *covApply) apply(vt *Matrix) *Matrix {
	t, n := c.x.Dims()
	p := vt.rows
	xvt, wt := New(p, t), New(p, n)
	vs, xvs, ws := vt.rowViews(), xvt.rowViews(), wt.rowViews()
	ParallelChunks((p+3)/4, 0, func(lo, hi int) {
		r0, r1 := 4*lo, min(4*hi, p)
		MulVecBiasBatchInto(xvs[r0:r1], c.zero[:t], c.x, vs[r0:r1])
		MulVecBiasBatchInto(ws[r0:r1], c.zero[:n], c.xt, xvs[r0:r1])
	})
	return wt.Scale(c.scale)
}

// rayleigh returns the p×p Rayleigh–Ritz matrix H = VᵀW for the transposed
// blocks vt = Vᵀ and wt = Wᵀ: row i of H is one MulVecBiasBatchInto
// product of Wᵀ with basis vector i against a zero bias, so H[i][j] sums
// W[n][j]·V[n][i] over n ascending from +0. That is Dot(vt[i], wt[j])
// with each product's factors commuted, which rounds the same, and a zero
// bias added to a sum started at +0 (never −0) leaves it unchanged, so H
// is bitwise the entry-by-entry Dot product.
func (c *covApply) rayleigh(vt, wt *Matrix) *Matrix {
	p := vt.rows
	h := New(p, p)
	MulVecBiasBatchInto(h.rowViews(), c.zero[:p], wt, vt.rowViews())
	return h
}

// SnapshotPODWorkers computes the leading eigenpairs of the covariance by
// the classical "method of snapshots": eigendecompose the T×T row Gram
// matrix XXᵀ/T and lift the eigenvectors back through Xᵀ. Exact (up to the
// dense eigensolver) and O(N·T² + T³), the cheap side of the duality
// whenever T < N. Its two O(N·T²)-class stages — the Gram accumulation and
// the lift — fan out over ParallelChunks with the given worker cap (0 or
// negative = runtime.NumCPU()).
//
// The lift recovers the covariance eigenvectors as the columns of
// V = Xᵀ·U·Λ^(−1/2)·T^(−1/2) (U the Gram eigenvectors), computed as one
// blocked product instead of K matrix-vector passes, then re-orthonormalized
// by a modified Gram–Schmidt sweep: the lift amplifies roundoff by 1/√λ, and
// downstream projection code (Approximate, recon) assumes an orthonormal
// block. Columns lifted from zero eigenvalues are left zero; callers
// requesting k beyond the data rank can detect the padding via the zero
// eigenvalue.
func SnapshotPODWorkers(x *Matrix, k, workers int) ([]float64, *Matrix, error) {
	t, n := x.Dims()
	if k > t {
		k = t
	}
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil, New(n, 0), nil
	}
	g := RowGramWorkers(x, workers).Scale(1 / float64(t)) // T×T
	eg, err := SymEigen(g)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot POD: %w", err)
	}
	vals := make([]float64, k)
	for j := range vals {
		if lam := eg.Values[j]; lam > 0 {
			vals[j] = lam
		}
	}
	// Blocked lift: Xᵀ·W_K in one parallel product, then per-column
	// normalization with MGS against the previous (finalized) columns,
	// cached as slices so the O(k²) projections don't re-copy them.
	_, wk := eg.TopK(k)
	vecs := liftTA(x, wk, workers) // N×k
	final := make([][]float64, k)
	for j := 0; j < k; j++ {
		u := vecs.Col(j)
		for p := 0; p < j; p++ {
			if vals[p] == 0 {
				continue
			}
			AXPY(-Dot(final[p], u), final[p], u)
		}
		if vals[j] == 0 || Normalize(u) == 0 {
			u = make([]float64, n) // zero padding beyond the data rank
			vals[j] = 0
		}
		final[j] = u
		vecs.SetCol(j, u)
	}
	normalizeSigns(vecs)
	return vals, vecs, nil
}

// liftBlock is the number of columns of X each pass of liftTA transposes.
const liftBlock = 64

// liftTA returns xᵀ·w (N×k) for the T×N x and the T×k w, fanning blocks
// of liftBlock columns of x out over at most workers goroutines (0 or
// negative = runtime.NumCPU()); small products stay on the calling
// goroutine. Each block is transposed into its goroutine's liftBlock×T
// buffer and multiplied by wᵀ in one MulVecBiasBatchInto against a zero
// bias, so entry (i, j) sums w[t][j]·x[t][i] over t ascending from +0:
// the AXPY formulation's sum, x[t][i]·w[t][j] in the same order, with
// each product's factors commuted, and with the terms of an exactly zero
// x[t][i] included — a product with a zero factor is ±0 for finite w,
// and adding ±0 leaves a sum that started at +0 unchanged. The result is
// therefore bitwise the row-streaming product for every worker count.
// Only a block of x is ever transposed, never the whole of it.
func liftTA(x, w *Matrix, workers int) *Matrix {
	if x.rows != w.rows {
		panic(ErrShape)
	}
	t, n, k := x.rows, x.cols, w.cols
	out := New(n, k)
	if t*n*k < ParallelThreshold {
		workers = 1
	}
	wt, zero, outs := w.T(), make([]float64, k), out.rowViews()
	ParallelChunks((n+liftBlock-1)/liftBlock, workers, func(lo, hi int) {
		buf := New(liftBlock, t)
		cols := buf.rowViews()
		for b := lo; b < hi; b++ {
			c0, c1 := b*liftBlock, min(b*liftBlock+liftBlock, n)
			for r := 0; r < t; r++ {
				for c, v := range x.data[r*n+c0 : r*n+c1] {
					buf.data[c*t+r] = v
				}
			}
			MulVecBiasBatchInto(outs[c0:c1], zero, wt, cols[:c1-c0])
		}
	})
	return out
}

// normalizeSigns flips each column so its largest-magnitude element is
// positive, resolving the inherent sign ambiguity of eigenvectors.
func normalizeSigns(v *Matrix) {
	n, k := v.Dims()
	for j := 0; j < k; j++ {
		best, bestAbs := 0.0, 0.0
		for i := 0; i < n; i++ {
			if a := math.Abs(v.At(i, j)); a > bestAbs {
				bestAbs = a
				best = v.At(i, j)
			}
		}
		if best < 0 {
			for i := 0; i < n; i++ {
				v.Set(i, j, -v.At(i, j))
			}
		}
	}
}
