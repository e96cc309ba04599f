// Package basis builds the low-dimensional thermal-map subspaces at the core
// of the paper: the optimal PCA basis ("EigenMaps", Proposition 1) trained
// from design-time simulations, and the low-frequency DCT basis used by the
// k-LSE baseline. Both expose the same Basis type so reconstruction and
// placement code is agnostic to the choice of subspace.
package basis

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/dct"
	"repro/internal/floorplan"
	"repro/internal/mat"
)

// Basis is an ordered orthonormal dictionary for thermal maps plus the
// ensemble mean. Columns of Psi are ranked by decreasing importance, so a
// K-dimensional approximation uses the first K columns (the paper's Ψ_K).
type Basis struct {
	Name string
	Grid floorplan.Grid

	// Mean is the training ensemble mean map; approximations and
	// reconstructions add it back (the paper's zero-mean footnote).
	Mean []float64

	// Psi holds the basis vectors as columns (N×KMax).
	Psi *mat.Matrix

	// Importance[k] orders the columns: for PCA it is the k-th eigenvalue of
	// the covariance (Proposition 1); for DCT it is the mean squared training
	// coefficient of the k-th selected frequency.
	Importance []float64

	// Method records which eigensolver side TrainPCA used, so reporting
	// tools don't have to re-derive the dispatch. In-memory only: not
	// serialized, and zero-valued on DCT and loaded bases.
	Method PCAMethod
}

// MaxAbsReading is the largest sensor reading magnitude, in °C, that a
// monitor maps to temperatures: 1e6 °C, far beyond any die. Reconstruction
// and tracking reject a batch holding a reading beyond it (or a NaN or
// ±Inf one) before any state changes, since a finite reading near the
// float64 range would overflow the operator into ±Inf and NaN maps.
const MaxAbsReading = 1e6

// ErrKRange reports a requested subspace dimension outside [1, KMax].
var ErrKRange = errors.New("basis: K outside [1, KMax]")

// KMax returns the number of stored basis vectors.
func (b *Basis) KMax() int { return b.Psi.Cols() }

// N returns the map dimension.
func (b *Basis) N() int { return b.Psi.Rows() }

// PsiK returns the first k columns (the paper's Ψ_K) as a copy.
func (b *Basis) PsiK(k int) (*mat.Matrix, error) {
	if k < 1 || k > b.KMax() {
		return nil, fmt.Errorf("%w: K=%d, KMax=%d", ErrKRange, k, b.KMax())
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	return b.Psi.SelectCols(idx), nil
}

// Coefficients projects map x onto the first k basis vectors:
// α = Ψ_Kᵀ(x − mean).
func (b *Basis) Coefficients(x []float64, k int) ([]float64, error) {
	if k < 1 || k > b.KMax() {
		return nil, fmt.Errorf("%w: K=%d, KMax=%d", ErrKRange, k, b.KMax())
	}
	if len(x) != b.N() {
		return nil, fmt.Errorf("basis: map length %d != N %d", len(x), b.N())
	}
	cx := mat.SubVec(x, b.Mean)
	alpha := make([]float64, k)
	for j := 0; j < k; j++ {
		var s float64
		for i := 0; i < b.N(); i++ {
			s += b.Psi.At(i, j) * cx[i]
		}
		alpha[j] = s
	}
	return alpha, nil
}

// Synthesize maps coefficients back to a thermal map:
// x̂ = mean + Ψ_K α (equation (1) with the mean restored).
func (b *Basis) Synthesize(alpha []float64) []float64 {
	out := make([]float64, b.N())
	b.SynthesizeInto(out, alpha)
	return out
}

// SynthesizeInto is the allocation-free form of Synthesize: it writes
// mean + Ψ_K α into dst (length N). It walks Ψ row-major — one pass over
// contiguous memory — so it is also the fast path for the per-snapshot
// reconstruction loop.
func (b *Basis) SynthesizeInto(dst, alpha []float64) {
	k := len(alpha)
	if k > b.KMax() {
		panic(fmt.Sprintf("basis: %d coefficients for KMax %d", k, b.KMax()))
	}
	if len(dst) != b.N() {
		panic(fmt.Sprintf("basis: destination length %d != N %d", len(dst), b.N()))
	}
	psi, stride := b.Psi.Data(), b.Psi.Cols()
	for i := range dst {
		row := psi[i*stride : i*stride+k]
		s := b.Mean[i]
		for j, a := range alpha {
			s += a * row[j]
		}
		dst[i] = s
	}
}

// Approximate is the K-term approximation x̂ = mean + Ψ_K Ψ_Kᵀ (x − mean):
// the orthogonal projection of Problem 1.
func (b *Basis) Approximate(x []float64, k int) ([]float64, error) {
	alpha, err := b.Coefficients(x, k)
	if err != nil {
		return nil, err
	}
	return b.Synthesize(alpha), nil
}

// PCAMethod names the side TrainPCA extracts the leading eigenpairs of the
// snapshot covariance on. Both sides of the duality span the same subspace
// (see the subspace-agreement tests); they differ only in cost, and
// ResolvePCAMethod picks one from the ensemble's shape.
type PCAMethod int

const (
	// PCACovariance runs block subspace iteration on C = XᵀX/T without
	// forming C — O(iters·N·T·K) — the only viable side when T ≥ N.
	PCACovariance PCAMethod = iota + 1
	// PCAGram eigendecomposes the T×T snapshot Gram XXᵀ/T and lifts the
	// eigenvectors as V = Xᵀ·U·Λ^(−1/2) — O(N·T² + T³), exact, and the fast
	// side whenever the ensemble is short relative to the grid.
	PCAGram
)

// String names the method.
func (m PCAMethod) String() string {
	switch m {
	case PCACovariance:
		return "covariance"
	case PCAGram:
		return "gram"
	}
	return fmt.Sprintf("PCAMethod(%d)", int(m))
}

// ResolvePCAMethod returns the side TrainPCA takes for a T×N ensemble at
// subspace dimension kmax.
//
// The dispatch rule — Gram iff T < N and T ≤ max(128, 8·kmax) — encodes the
// measured crossover of the two cost models: the Gram side pays
// O(N·T²) accumulation plus a dense T×T eigensolve whose O(T³) term carries
// a large constant (full eigenvector accumulation), so it loses once T grows
// past a few hundred; the covariance side pays O(iters·N·T·(kmax+oversample))
// and degrades sharply as the block widens, which moves the crossover out
// proportionally to kmax. BenchmarkTrainSides tracks both sides so the
// rule can be re-fit if the kernels change.
func ResolvePCAMethod(t, n, kmax int) PCAMethod {
	cross := 128
	if 8*kmax > cross {
		cross = 8 * kmax
	}
	if t < n && t <= cross {
		return PCAGram
	}
	return PCACovariance
}

// TrainPCA learns the EigenMaps basis from the training ensemble: the kmax
// leading eigenvectors of the sample covariance of the centered maps
// (Proposition 1), on the side ResolvePCAMethod picks. Importance holds the
// corresponding eigenvalues. The seed drives the covariance side's starting
// block; the trained basis is deterministic given it (and essentially
// seed-independent, up to numerical tolerance, thanks to sign
// normalization). The Gram side fans out over all CPUs; its result does
// not depend on the count.
func TrainPCA(ds *dataset.Dataset, kmax int, seed int64) (*Basis, error) {
	side := ResolvePCAMethod(ds.T(), ds.N(), kmax)
	return trainPCASide(ds, kmax, side, mat.SubspaceOptions{Rand: rand.New(rand.NewSource(seed))}, 0)
}

// trainPCASide is TrainPCA on the given side, with the covariance side's
// iteration options (opts.Rand seeds it) and a goroutine cap for the Gram
// side (0 = all CPUs, 1 = sequential); the tests and benchmarks force a
// side, tighten the tolerance and vary the cap.
func trainPCASide(ds *dataset.Dataset, kmax int, side PCAMethod, opts mat.SubspaceOptions, workers int) (*Basis, error) {
	if kmax < 1 {
		return nil, fmt.Errorf("basis: kmax %d < 1", kmax)
	}
	x, mean := ds.Centered()
	var (
		vals []float64
		vecs *mat.Matrix
		err  error
	)
	if side == PCAGram {
		vals, vecs, err = mat.SnapshotPODWorkers(x, kmax, workers)
	} else {
		vals, vecs, err = mat.TopCovarianceEigen(x, kmax, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("basis: PCA training: %w", err)
	}
	return &Basis{
		Name:       "eigenmaps",
		Grid:       ds.Grid,
		Mean:       mean,
		Psi:        vecs,
		Importance: vals,
		Method:     side,
	}, nil
}

// DCTSelection chooses how TrainDCT picks its kmax frequencies.
type DCTSelection int

const (
	// DCTZigZag takes the kmax lowest frequencies in zig-zag order — the
	// classical data-independent low-pass prior.
	DCTZigZag DCTSelection = iota
	// DCTEnergyRanked ranks all frequencies by mean squared training
	// coefficient and keeps the kmax strongest — the stronger, data-adaptive
	// variant of the k-LSE prior (our default baseline).
	DCTEnergyRanked
)

// String names the selection mode.
func (s DCTSelection) String() string {
	switch s {
	case DCTZigZag:
		return "zigzag"
	case DCTEnergyRanked:
		return "energy-ranked"
	}
	return fmt.Sprintf("DCTSelection(%d)", int(s))
}

// TrainDCT builds the k-LSE baseline basis on the dataset's grid.
// For DCTZigZag the dataset is used only for the mean and per-frequency
// energies; for DCTEnergyRanked it also drives frequency selection.
func TrainDCT(ds *dataset.Dataset, kmax int, sel DCTSelection) (*Basis, error) {
	if kmax < 1 {
		return nil, fmt.Errorf("basis: kmax %d < 1", kmax)
	}
	g := ds.Grid
	if kmax > g.N() {
		kmax = g.N()
	}
	x, mean := ds.Centered()

	// Per-frequency mean squared coefficient over the training set.
	energy := make([]float64, g.N())
	for j := 0; j < x.Rows(); j++ {
		coef := dct.Transform2D(g, x.Row(j))
		for i, c := range coef {
			energy[i] += c * c
		}
	}
	mat.ScaleVec(1/float64(x.Rows()), energy)

	var freqs []dct.Freq
	switch sel {
	case DCTZigZag:
		freqs = dct.ZigZag(g, kmax)
	case DCTEnergyRanked:
		type fe struct {
			f dct.Freq
			e float64
		}
		all := make([]fe, 0, g.N())
		for u := 0; u < g.H; u++ {
			for v := 0; v < g.W; v++ {
				f := dct.Freq{U: u, V: v}
				all = append(all, fe{f: f, e: energy[dct.Coefficient(g, f)]})
			}
		}
		sort.SliceStable(all, func(a, b int) bool { return all[a].e > all[b].e })
		freqs = make([]dct.Freq, kmax)
		for i := range freqs {
			freqs[i] = all[i].f
		}
	default:
		return nil, fmt.Errorf("basis: unknown DCT selection %v", sel)
	}

	imp := make([]float64, len(freqs))
	for i, f := range freqs {
		imp[i] = energy[dct.Coefficient(g, f)]
	}
	return &Basis{
		Name:       "k-lse-dct-" + sel.String(),
		Grid:       g,
		Mean:       mean,
		Psi:        dct.BasisMatrix(g, freqs),
		Importance: imp,
	}, nil
}
