// Package core wires the substrates into the paper's end-to-end pipeline:
//
//	design-time:  simulate maps → train a basis (EigenMaps or DCT) →
//	              allocate sensors (greedy / energy-center, optionally masked)
//	run-time:     reconstruct the full thermal map from sensor readings
//
// It is the implementation behind the repository's public eigenmaps package.
package core

import (
	"errors"
	"fmt"

	"repro/internal/basis"
	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/place"
	"repro/internal/recon"
)

// BasisKind selects the approximation subspace family.
type BasisKind int

// Supported basis families.
const (
	// BasisEigenMaps is the paper's PCA subspace (Proposition 1).
	BasisEigenMaps BasisKind = iota
	// BasisDCT is the k-LSE baseline subspace (energy-ranked DCT).
	BasisDCT
	// BasisDCTZigZag is the data-independent low-pass DCT subspace.
	BasisDCTZigZag
)

// String names the basis kind.
func (k BasisKind) String() string {
	switch k {
	case BasisEigenMaps:
		return "eigenmaps"
	case BasisDCT:
		return "dct-energy"
	case BasisDCTZigZag:
		return "dct-zigzag"
	}
	return fmt.Sprintf("BasisKind(%d)", int(k))
}

// TrainOptions parameterize Train.
type TrainOptions struct {
	// KMax is the number of basis vectors to learn (the largest K any
	// reconstructor built from this model may use). Default 40.
	KMax int
	// Kind selects the subspace family. Default BasisEigenMaps.
	Kind BasisKind
	// Seed drives PCA subspace iteration. Results are seed-insensitive up to
	// numerical tolerance.
	Seed int64
}

// OptionError reports a TrainOptions field (or the ensemble it is applied
// to) that would silently produce a degenerate model. Match with errors.As,
// or errors.Is against ErrInvalidOptions.
type OptionError struct {
	Option string // offending field, e.g. "Ensemble"
	Reason string
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("core: invalid %s: %s", e.Option, e.Reason)
}

// Is makes every OptionError match ErrInvalidOptions.
func (e *OptionError) Is(target error) bool { return target == ErrInvalidOptions }

// ErrInvalidOptions is the errors.Is target for all OptionError values.
var ErrInvalidOptions = errors.New("core: invalid training options")

// validate rejects option/ensemble combinations that would otherwise train
// silently into garbage: a single snapshot centers to the zero matrix (its
// "covariance" has no spectrum at all).
func (opt TrainOptions) validate(ds *dataset.Dataset) error {
	if t := ds.T(); t < 2 {
		return &OptionError{Option: "Ensemble", Reason: fmt.Sprintf("training needs T ≥ 2 snapshots, got %d (a single centered snapshot has a degenerate covariance)", t)}
	}
	return nil
}

// Model is a trained thermal-map model for one grid: the ordered basis plus
// the per-cell training energy map used by the energy-center allocator.
type Model struct {
	Basis  *basis.Basis
	Energy []float64 // per-cell mean squared centered temperature
	Grid   floorplan.Grid
}

// Train learns a Model from the design-time ensemble. The dataset is
// validated first: non-finite temperatures or a grid/map mismatch fail fast
// instead of propagating NaNs into the basis.
func Train(ds *dataset.Dataset, opt TrainOptions) (*Model, error) {
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := opt.validate(ds); err != nil {
		return nil, err
	}
	if opt.KMax == 0 {
		opt.KMax = 40
	}
	if t := ds.T(); opt.KMax > t {
		opt.KMax = t
	}
	var (
		b   *basis.Basis
		err error
	)
	switch opt.Kind {
	case BasisEigenMaps:
		b, err = basis.TrainPCA(ds, opt.KMax, opt.Seed)
	case BasisDCT:
		b, err = basis.TrainDCT(ds, opt.KMax, basis.DCTEnergyRanked)
	case BasisDCTZigZag:
		b, err = basis.TrainDCT(ds, opt.KMax, basis.DCTZigZag)
	default:
		return nil, fmt.Errorf("core: unknown basis kind %v", opt.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("core: training: %w", err)
	}
	// Energy map: mean squared centered temperature per cell, centered on
	// the basis mean, which is the ensemble mean Dataset.Centered returns
	// for every basis kind, so each (x − mean)² is the centered copy's v·v
	// without a second copy of the ensemble.
	mean := b.Mean
	energy := make([]float64, ds.N())
	for j := 0; j < ds.T(); j++ {
		row := ds.Map(j)
		for i, x := range row {
			v := x - mean[i]
			energy[i] += v * v
		}
	}
	for i := range energy {
		energy[i] /= float64(ds.T())
	}
	return &Model{Basis: b, Energy: energy, Grid: ds.Grid}, nil
}

// PlaceOptions parameterize PlaceSensors.
type PlaceOptions struct {
	// K is the subspace dimension the sensors must observe; defaults to M
	// (the paper's operating point K = M for noiseless reconstruction).
	K int
	// Mask restricts placement (nil = whole die).
	Mask []bool
	// Allocator overrides the strategy; nil = the paper's greedy Algorithm 1.
	Allocator place.Allocator
}

// PlaceSensors allocates m sensor locations for the model.
func (mdl *Model) PlaceSensors(m int, opt PlaceOptions) ([]int, error) {
	k := opt.K
	if k == 0 {
		k = m
	}
	if k > mdl.Basis.KMax() {
		k = mdl.Basis.KMax()
	}
	if k > m {
		return nil, fmt.Errorf("core: K=%d exceeds sensor budget M=%d", k, m)
	}
	psi, err := mdl.Basis.PsiK(k)
	if err != nil {
		return nil, err
	}
	alloc := opt.Allocator
	if alloc == nil {
		alloc = &place.Greedy{}
	}
	sensors, err := alloc.Allocate(place.Input{
		Psi:    psi,
		Energy: mdl.Energy,
		Grid:   mdl.Grid,
		M:      m,
		Mask:   opt.Mask,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %s allocation: %w", alloc.Name(), err)
	}
	return sensors, nil
}

// Monitor is the run-time estimator: it owns a reconstructor for a fixed
// sensor set and subspace dimension. It is safe for concurrent use: the
// least-squares factorization is precomputed at construction and shared
// read-only across all estimating goroutines.
type Monitor struct {
	rec *recon.Reconstructor
}

// NewMonitor builds the run-time estimator for k basis vectors observed at
// the given sensors.
func (mdl *Model) NewMonitor(k int, sensors []int) (*Monitor, error) {
	r, err := recon.New(mdl.Basis, k, sensors)
	if err != nil {
		return nil, err
	}
	return &Monitor{rec: r}, nil
}

// RestoredMonitor wraps a reconstructor restored from a store record
// (store.Record.RestoreMonitor) as a run-time estimator, which estimates
// bit-identically to the monitor the record was saved from.
func RestoredMonitor(r *recon.Reconstructor) *Monitor { return &Monitor{rec: r} }

// Estimate reconstructs the full map from sensor readings (°C), ordered like
// the sensor slice the monitor was built with.
func (m *Monitor) Estimate(readings []float64) ([]float64, error) {
	return m.rec.Reconstruct(readings)
}

// EstimateInto is the allocation-free form of Estimate: the map is written
// into dst (length N) and scratch comes from the monitor's pool.
func (m *Monitor) EstimateInto(dst, readings []float64) error {
	return m.rec.ReconstructInto(dst, readings)
}

// EstimateBatch reconstructs one map per reading vector, fanning the batch
// out over workers goroutines (0 = NumCPU).
func (m *Monitor) EstimateBatch(readings [][]float64, workers int) ([][]float64, error) {
	return m.rec.ReconstructBatch(readings, workers)
}

// EstimateBatchInto is the allocation-free batch form; dst[i] (length N each)
// receives the estimate for readings[i].
func (m *Monitor) EstimateBatchInto(dst, readings [][]float64, workers int) error {
	return m.rec.ReconstructBatchInto(dst, readings, workers)
}

// N returns the number of cells per estimated map (the dst size EstimateInto
// expects).
func (m *Monitor) N() int { return m.rec.N() }

// Sample extracts this monitor's sensor readings from a full map (testing
// and simulation convenience).
func (m *Monitor) Sample(x []float64) []float64 { return m.rec.Sample(x) }

// Sensors returns the monitored cell indices.
func (m *Monitor) Sensors() []int { return m.rec.Sensors() }

// K returns the subspace dimension.
func (m *Monitor) K() int { return m.rec.K() }

// Cond returns κ(Ψ̃_K), the layout quality metric of eq. (5).
func (m *Monitor) Cond() (float64, error) { return m.rec.Cond() }

// Reconstructor exposes the underlying estimator for evaluation code.
func (m *Monitor) Reconstructor() *recon.Reconstructor { return m.rec }

// ResidualInto computes the sensor-space reprojection residual of one reading
// vector (the drift statistic): the per-sensor residual goes into dst (length
// M) and the normalized residual norm ∈ [0, 1] is returned. See
// recon.Reconstructor.ResidualInto.
func (m *Monitor) ResidualInto(dst, readings []float64) (float64, error) {
	return m.rec.ResidualInto(dst, readings)
}

// ResidualStats scores a whole batch of reading vectors for drift in one
// pass — see recon.Reconstructor.ResidualStats.
func (m *Monitor) ResidualStats(energy []float64, rows [][]float64) (float64, int, error) {
	return m.rec.ResidualStats(energy, rows)
}

// ResidualStatsFromEstimates scores a served batch using its
// already-computed reconstructions — see
// recon.Reconstructor.ResidualStatsFromEstimates.
func (m *Monitor) ResidualStatsFromEstimates(energy []float64, rows, maps [][]float64) (float64, int, error) {
	return m.rec.ResidualStatsFromEstimates(energy, rows, maps)
}

// ErrNoUsableK is returned by BestK when no K in range yields a full-rank
// sensing matrix.
var ErrNoUsableK = errors.New("core: no usable subspace dimension for this sensor set")

// BestK picks the subspace dimension K ∈ [1, min(M, KMax)] minimizing the
// evaluated MSE on ds — the ε (approximation) versus ε_r (conditioning)
// balance discussed after Theorem 1.
func (mdl *Model) BestK(ds *dataset.Dataset, sensors []int, cfg recon.EvalConfig) (int, recon.Result, error) {
	maxK := len(sensors)
	if mdl.Basis.KMax() < maxK {
		maxK = mdl.Basis.KMax()
	}
	bestK := 0
	var best recon.Result
	for k := 1; k <= maxK; k++ {
		r, err := recon.New(mdl.Basis, k, sensors)
		if err != nil {
			continue // e.g. rank deficient at this K
		}
		res, err := recon.Evaluate(r, ds, cfg)
		if err != nil {
			continue
		}
		if bestK == 0 || res.MSE < best.MSE {
			bestK, best = k, res
		}
	}
	if bestK == 0 {
		return 0, recon.Result{}, ErrNoUsableK
	}
	return bestK, best, nil
}
