package basis

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/mat"
)

// Incremental maintains an EigenMaps basis over a *stream* of thermal maps,
// without storing the stream: snapshots accumulate in a bounded buffer and
// are periodically merged into a rank-limited factorization using the
// classical incremental PCA with mean update (Ross, Lim, Lin, Yang — IJCV
// 2008). This extends the paper's design-time training to in-field refresh:
// a deployed monitor can keep absorbing reconstruction-grade maps and adapt
// its subspace to workload drift.
//
// Merging is exact for the retained rank: after each merge the factorization
// equals the batch PCA of (previous rank-r approximation ∪ buffer), with the
// only information loss being the discarded tail components — quantified by
// the usual eigenvalue tail.
type Incremental struct {
	grid   floorplan.Grid
	n      int
	kmax   int
	bufCap int

	count int       // snapshots absorbed so far
	mean  []float64 // running mean (exact)

	// Exact per-cell first and second moments over *every* absorbed snapshot
	// (buffered ones included), maintained so the trainer can report the
	// energy map E[(x−μ)²] = E[x²] − μ² that sensor placement and the store
	// format require alongside the basis.
	sum   []float64
	sumSq []float64

	// Current factorization of the centered scatter: scatter ≈ U·diag(s)·Uᵀ
	// with s holding *scatter* eigenvalues (covariance eigenvalue × count).
	u *mat.Matrix // N×r, orthonormal columns; nil until the first merge
	s []float64

	buf *mat.Matrix // bufCap×N ring of pending raw snapshots
	nb  int         // pending count
}

// NewIncremental creates a streaming trainer on grid keeping kmax
// components, merging every bufCap snapshots (default max(2·kmax, 16)).
func NewIncremental(grid floorplan.Grid, kmax, bufCap int) (*Incremental, error) {
	if kmax < 1 {
		return nil, fmt.Errorf("basis: kmax %d < 1", kmax)
	}
	if grid.N() == 0 {
		return nil, fmt.Errorf("basis: empty grid")
	}
	if bufCap <= 0 {
		bufCap = 2 * kmax
		if bufCap < 16 {
			bufCap = 16
		}
	}
	return &Incremental{
		grid:   grid,
		n:      grid.N(),
		kmax:   kmax,
		bufCap: bufCap,
		mean:   make([]float64, grid.N()),
		sum:    make([]float64, grid.N()),
		sumSq:  make([]float64, grid.N()),
		buf:    mat.New(bufCap, grid.N()),
	}, nil
}

// NewIncrementalFrom creates a streaming trainer seeded with an existing
// trained basis standing in for count already-absorbed snapshots — the
// in-field adaptation entry point: a deployed monitor's design-time basis
// becomes the starting factorization and subsequent Adds drift it toward the
// live workload. energy, when non-nil, is the per-cell training energy
// E[(x−μ)²] (length N) so the seeded trainer's Energy output stays exact;
// nil seeds zero second moments and Energy reflects only post-seed snapshots'
// spread around the seeded mean. The retained rank is b.KMax().
func NewIncrementalFrom(b *Basis, energy []float64, count, bufCap int) (*Incremental, error) {
	if b == nil {
		return nil, fmt.Errorf("basis: nil seed basis")
	}
	if count < 1 {
		return nil, fmt.Errorf("basis: seed count %d < 1", count)
	}
	if energy != nil && len(energy) != b.N() {
		return nil, fmt.Errorf("basis: energy length %d, want %d", len(energy), b.N())
	}
	inc, err := NewIncremental(b.Grid, b.KMax(), bufCap)
	if err != nil {
		return nil, err
	}
	inc.count = count
	copy(inc.mean, b.Mean)
	inc.u = b.Psi.Clone()
	inc.s = make([]float64, b.KMax())
	for j, imp := range b.Importance {
		inc.s[j] = imp * float64(count) // covariance eigenvalue → scatter
	}
	nA := float64(count)
	for i, m := range b.Mean {
		inc.sum[i] = nA * m
		inc.sumSq[i] = nA * m * m
	}
	if energy != nil {
		for i, e := range energy {
			inc.sumSq[i] += nA * e
		}
	}
	return inc, nil
}

// Count returns the number of snapshots absorbed (including buffered ones).
func (inc *Incremental) Count() int { return inc.count + inc.nb }

// Add absorbs one thermal map (length N). The map is copied. A full
// buffer is merged when the next map arrives (or at Snapshot), not when it
// fills: the merges fold the same groups of maps either way, and a buffer
// that no map follows costs nothing until a snapshot needs it.
func (inc *Incremental) Add(x []float64) error {
	if len(x) != inc.n {
		return fmt.Errorf("basis: map length %d, want %d", len(x), inc.n)
	}
	if inc.nb == inc.bufCap {
		inc.merge()
	}
	inc.buf.SetRow(inc.nb, x)
	inc.nb++
	for i, v := range x {
		inc.sum[i] += v
		inc.sumSq[i] += v * v
	}
	return nil
}

// Energy returns the per-cell mean squared centered temperature
// E[(x−μ)²] = E[x²] − μ² over every absorbed snapshot (buffered ones
// included) — the same energy map batch training reports, which sensor
// placement and the monitor store require alongside the basis. Returns nil
// before the first Add (or seed).
func (inc *Incremental) Energy() []float64 {
	total := float64(inc.Count())
	if total == 0 {
		return nil
	}
	out := make([]float64, inc.n)
	for i := range out {
		m := inc.sum[i] / total
		e := inc.sumSq[i]/total - m*m
		if e < 0 {
			e = 0 // second-moment cancellation noise
		}
		out[i] = e
	}
	return out
}

// merge folds the buffered snapshots into the factorization.
func (inc *Incremental) merge() {
	if inc.nb == 0 {
		return
	}
	nA := float64(inc.count)
	nB := float64(inc.nb)

	// Buffer mean and the combined mean.
	muB := make([]float64, inc.n)
	for j := 0; j < inc.nb; j++ {
		mat.AXPY(1/nB, inc.buf.Row(j), muB)
	}
	newMean := make([]float64, inc.n)
	for i := range newMean {
		newMean[i] = (nA*inc.mean[i] + nB*muB[i]) / (nA + nB)
	}

	// Augmented column set whose outer product reproduces the combined
	// scatter: previous components scaled by √s, the buffer centered at its
	// own mean, and the mean-shift column √(nA·nB/(nA+nB))·(μA − μB).
	r := 0
	if inc.u != nil {
		r = inc.u.Cols()
	}
	cols := r + inc.nb
	if nA > 0 {
		cols++
	}
	aug := mat.New(inc.n, cols)
	c := 0
	for j := 0; j < r; j++ {
		scale := math.Sqrt(inc.s[j])
		for i := 0; i < inc.n; i++ {
			aug.Set(i, c, scale*inc.u.At(i, j))
		}
		c++
	}
	for j := 0; j < inc.nb; j++ {
		row := inc.buf.Row(j)
		for i := 0; i < inc.n; i++ {
			aug.Set(i, c, row[i]-muB[i])
		}
		c++
	}
	if nA > 0 {
		w := math.Sqrt(nA * nB / (nA + nB))
		for i := 0; i < inc.n; i++ {
			aug.Set(i, c, w*(inc.mean[i]-muB[i]))
		}
	}

	// Eigendecompose the small Gram matrix and lift, keeping ≤ kmax
	// components (and dropping numerically zero ones).
	gram := mat.Gram(aug) // cols×cols
	eg, err := mat.SymEigen(gram)
	if err != nil {
		// A failed merge would lose data; keep the buffer and retry on the
		// next Add. SymEigen on an SPD Gram matrix converging is the norm —
		// this path exists for pathological inputs only.
		return
	}
	keep := inc.kmax
	if keep > len(eg.Values) {
		keep = len(eg.Values)
	}
	tol := 1e-12 * (eg.Values[0] + 1)
	newS := make([]float64, 0, keep)
	newU := mat.New(inc.n, keep)
	col := 0
	for j := 0; j < keep; j++ {
		lam := eg.Values[j]
		if lam <= tol {
			break
		}
		// u_j = aug·v_j/√λ.
		v := eg.Vectors.Col(j)
		uj := mat.MulVec(aug, v)
		mat.ScaleVec(1/math.Sqrt(lam), uj)
		newU.SetCol(col, uj)
		newS = append(newS, lam)
		col++
	}
	inc.u = newU.Slice(0, inc.n, 0, col)
	inc.s = newS
	inc.mean = newMean
	inc.count += inc.nb
	inc.nb = 0
}

// Snapshot merges any pending snapshots and returns the current basis.
// The returned Basis is independent of future Adds.
func (inc *Incremental) Snapshot() (*Basis, error) {
	inc.merge()
	if inc.u == nil || inc.count == 0 {
		return nil, fmt.Errorf("basis: no snapshots absorbed yet")
	}
	k := inc.u.Cols()
	imp := make([]float64, k)
	for i, s := range inc.s {
		imp[i] = s / float64(inc.count) // scatter → covariance eigenvalue
	}
	normalizeSignsOf(inc.u)
	return &Basis{
		Name:       "eigenmaps-incremental",
		Grid:       inc.grid,
		Mean:       mat.CopyVec(inc.mean),
		Psi:        inc.u.Clone(),
		Importance: imp,
	}, nil
}

// normalizeSignsOf flips columns so the largest-magnitude entry is positive
// (same convention as batch training).
func normalizeSignsOf(v *mat.Matrix) {
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
