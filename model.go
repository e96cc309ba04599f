package eigenmaps

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/recon"
	"repro/internal/store"
)

// BasisFamily selects the approximation subspace.
type BasisFamily string

// Available basis families.
const (
	// EigenMapsBasis is the paper's PCA subspace (the default).
	EigenMapsBasis BasisFamily = "eigenmaps"
	// DCTBasis is the k-LSE baseline subspace (energy-ranked DCT).
	DCTBasis BasisFamily = "dct"
	// DCTZigZagBasis is the data-independent low-pass DCT subspace.
	DCTZigZagBasis BasisFamily = "dct-zigzag"
)

// TrainOptions parameterize Train.
type TrainOptions struct {
	// KMax is the largest subspace dimension the model will support.
	// Default 40.
	KMax int
	// Basis selects the subspace family. Default EigenMapsBasis.
	Basis BasisFamily
	// Seed drives the PCA eigensolver's starting block.
	Seed int64
}

// OptionError is the typed error Train returns for invalid TrainOptions or
// a degenerate ensemble (T < 2 snapshots). Match with errors.As, or
// errors.Is against ErrInvalidOptions.
type OptionError = core.OptionError

// ErrInvalidOptions is the errors.Is target for all OptionError values.
var ErrInvalidOptions = core.ErrInvalidOptions

// Model is a trained thermal-map model: basis, mean map and training energy.
type Model struct {
	m *core.Model
}

// Train learns a model from a simulated ensemble. Both sides of the PCA
// duality extract the same EigenMaps subspace (Proposition 1) at a cost
// that pivots on the ensemble's shape, so Train picks the side from it:
// the T×T snapshot Gram when T < N and T ≤ max(128, 8·KMax), block
// subspace iteration on the N×N covariance (never formed) otherwise.
func Train(e *Ensemble, opt TrainOptions) (*Model, error) {
	kind := core.BasisEigenMaps
	switch opt.Basis {
	case "", EigenMapsBasis:
	case DCTBasis:
		kind = core.BasisDCT
	case DCTZigZagBasis:
		kind = core.BasisDCTZigZag
	default:
		return nil, fmt.Errorf("eigenmaps: unknown basis family %q", opt.Basis)
	}
	m, err := core.Train(e.ds, core.TrainOptions{KMax: opt.KMax, Kind: kind, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	return &Model{m: m}, nil
}

// storeRecord bundles the model — basis and training energy — as a model
// record of the store format, the same record the daemon writes as
// model-<hash>.emod.
func (m *Model) storeRecord() *store.Record {
	return &store.Record{
		Meta:   store.Meta{GridW: m.m.Grid.W, GridH: m.m.Grid.H, KMax: m.m.Basis.KMax()},
		Basis:  m.m.Basis,
		Energy: m.m.Energy,
	}
}

// Save writes the trained model in the library's versioned, checksummed
// store format, so full-scale training can happen once.
func (m *Model) Save(w io.Writer) error { return store.Encode(w, m.storeRecord()) }

// SaveFile writes the model to path atomically (temporary file + rename).
func (m *Model) SaveFile(path string) error { return store.SaveFile(path, m.storeRecord()) }

// LoadModel reads a model written by Save — or by the daemon, whose model
// records (model-<hash>.emod) are the same format. Failures are
// *StoreError values; a record without a training energy map is
// ErrStoreInvalid.
func LoadModel(r io.Reader) (*Model, error) {
	rec, err := store.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("eigenmaps: %w", err)
	}
	if rec.Energy == nil {
		return nil, fmt.Errorf("eigenmaps: %w", &store.Error{
			Kind: store.KindInvalid, Detail: "record has no training energy (not a model record)"})
	}
	return &Model{m: &core.Model{Basis: rec.Basis, Energy: rec.Energy, Grid: rec.Basis.Grid}}, nil
}

// LoadModelFile reads a model from path.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}

// KMax returns the number of trained basis vectors.
func (m *Model) KMax() int { return m.m.Basis.KMax() }

// Grid returns the model's grid.
func (m *Model) Grid() Grid { return Grid{W: m.m.Grid.W, H: m.m.Grid.H} }

// Spectrum returns the basis importance values (eigenvalues for the PCA
// family) — the decay plot of Fig. 2.
func (m *Model) Spectrum() []float64 {
	out := make([]float64, len(m.m.Basis.Importance))
	copy(out, m.m.Basis.Importance)
	return out
}

// ExpectedApproxMSE returns Proposition 1's per-cell approximation MSE at
// dimension K on the training ensemble: the eigenvalue tail Σ_{n≥K} λ_n
// over N. The tail runs past KMax, so it is taken as the total variance
// (the sum of the training energy map) minus Σ_{n<K} λ_n, clamped at 0;
// K is clamped to [0, KMax]. Only meaningful for the EigenMaps family.
func (m *Model) ExpectedApproxMSE(k int) float64 {
	k = max(0, min(k, m.KMax()))
	var tail float64
	for _, e := range m.m.Energy {
		tail += e
	}
	for _, l := range m.m.Basis.Importance[:k] {
		tail -= l
	}
	return max(tail, 0) / float64(m.m.Basis.N())
}

// Allocation names a sensor-placement strategy for PlaceSensors.
type Allocation string

// Available allocation strategies.
const (
	// GreedyAllocation is the paper's Algorithm 1 (the default).
	GreedyAllocation Allocation = "greedy"
	// EnergyAllocation is the energy-center heuristic of the k-LSE paper.
	EnergyAllocation Allocation = "energy"
	// RandomAllocation places sensors uniformly at random (reference).
	RandomAllocation Allocation = "random"
	// UniformAllocation places sensors on a regular lattice (reference).
	UniformAllocation Allocation = "uniform"
	// DOptimalAllocation is forward greedy D-optimal design — the ablation
	// counterpart to GreedyAllocation's backward elimination.
	DOptimalAllocation Allocation = "d-optimal"
)

// PlaceOptions parameterize PlaceSensors.
type PlaceOptions struct {
	// K is the subspace dimension the layout must observe; defaults to M.
	K int
	// Strategy defaults to GreedyAllocation.
	Strategy Allocation
	// Mask, if non-nil, allows sensors only where Mask[cell] is true
	// (see T1SensorMask).
	Mask []bool
	// Seed is used by RandomAllocation.
	Seed int64
}

// PlaceSensors returns m sensor cell indices chosen by the selected
// strategy.
func (m *Model) PlaceSensors(count int, opt PlaceOptions) ([]int, error) {
	alloc, err := place.Parse(string(opt.Strategy), opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("eigenmaps: %w", err)
	}
	return m.m.PlaceSensors(count, core.PlaceOptions{
		K:         opt.K,
		Mask:      opt.Mask,
		Allocator: alloc,
	})
}

// Monitor reconstructs full thermal maps from sensor readings at run time.
//
// A Monitor is safe for concurrent use: the least-squares factorization
// behind Theorem 1 is computed once at construction and shared read-only by
// every estimating goroutine, with per-call scratch drawn from an internal
// pool. Beyond the single-snapshot Estimate, the batched engine offers
// EstimateInto (allocation-free), EstimateBatch (worker pool fan-out) and
// EstimateStream (channel-driven) — see batch.go.
type Monitor struct {
	mon  *core.Monitor
	grid Grid
}

// NewMonitor builds the run-time estimator using the first k basis vectors
// and the given sensor cells (k ≤ len(sensors)). Duplicate sensor cells are
// rejected: a doubled row makes the layout silently worse-conditioned than
// its nominal sensor count suggests.
func (m *Model) NewMonitor(k int, sensors []int) (*Monitor, error) {
	mon, err := m.m.NewMonitor(k, sensors)
	if err != nil {
		return nil, err
	}
	return &Monitor{mon: mon, grid: m.Grid()}, nil
}

// Estimate reconstructs the full thermal map (°C, column-stacked) from the
// sensor readings, ordered like Sensors(). Non-finite (NaN/Inf) readings are
// rejected — least squares would not fail on them, it would silently poison
// every cell of the output map.
func (mn *Monitor) Estimate(readings []float64) ([]float64, error) {
	return mn.mon.Estimate(readings)
}

// Sample extracts this monitor's readings from a full map (simulation
// convenience).
func (mn *Monitor) Sample(x []float64) []float64 { return mn.mon.Sample(x) }

// Sensors returns the monitored cell indices.
func (mn *Monitor) Sensors() []int { return mn.mon.Sensors() }

// K returns the subspace dimension in use.
func (mn *Monitor) K() int { return mn.mon.K() }

// ConditionNumber returns κ(Ψ̃_K), the paper's layout quality metric:
// smaller is better, 1 is perfect.
func (mn *Monitor) ConditionNumber() (float64, error) { return mn.mon.Cond() }

// Evaluation summarizes reconstruction quality over an ensemble.
type Evaluation struct {
	MSE     float64 // mean squared error over all maps and cells [°C²]
	MaxAbsC float64 // worst per-cell absolute error [°C]
	Cond    float64 // κ(Ψ̃_K)
	K, M    int
}

// EvalOptions parameterize Evaluate.
type EvalOptions struct {
	// SNRdB corrupts sensor readings with white Gaussian noise at this SNR
	// (paper definition ‖x‖²/‖w‖²). Use +Inf or leave Noisy false for clean
	// measurements.
	SNRdB float64
	Noisy bool
	Seed  int64
}

// Evaluate reconstructs every map of the ensemble through the monitor and
// reports the paper's MSE and MAX metrics.
func (mn *Monitor) Evaluate(e *Ensemble, opt EvalOptions) (Evaluation, error) {
	res, err := recon.Evaluate(mn.mon.Reconstructor(), e.ds, recon.EvalConfig{
		SNRdB:        opt.SNRdB,
		NoisePresent: opt.Noisy && !math.IsInf(opt.SNRdB, 1),
		Seed:         opt.Seed,
	})
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{MSE: res.MSE, MaxAbsC: res.MaxAbs, Cond: res.Cond, K: res.K, M: res.M}, nil
}

// BestK selects the subspace dimension K ≤ min(M, KMax) that minimizes MSE
// on the ensemble — the paper's ε versus ε_r trade-off — and returns it with
// its evaluation.
func (m *Model) BestK(e *Ensemble, sensors []int, opt EvalOptions) (int, Evaluation, error) {
	k, res, err := m.m.BestK(e.ds, sensors, recon.EvalConfig{
		SNRdB:        opt.SNRdB,
		NoisePresent: opt.Noisy && !math.IsInf(opt.SNRdB, 1),
		Seed:         opt.Seed,
	})
	if err != nil {
		return 0, Evaluation{}, err
	}
	return k, Evaluation{MSE: res.MSE, MaxAbsC: res.MaxAbs, Cond: res.Cond, K: res.K, M: res.M}, nil
}
