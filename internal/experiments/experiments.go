// Package experiments regenerates every figure of the paper's evaluation
// (Sec. 5) plus the headline claims of Sec. 1, on top of the repository's
// simulated UltraSPARC T1 ensemble. Each FigN function returns a result
// struct whose String method prints the same series/rows the paper plots;
// cmd/experiments runs them all and EXPERIMENTS.md records the comparison.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/workload"
)

// Config scales the experiment suite. DefaultConfig reproduces the paper's
// dimensions; QuickConfig shrinks everything for benches and smoke tests.
type Config struct {
	Grid      floorplan.Grid
	Snapshots int
	KMax      int
	Seed      int64

	// Ms are the sensor counts swept in Figs. 3(b), 5 and 6.
	Ms []int
	// Ks are the subspace dimensions swept in Fig. 3(a).
	Ks []int
	// SNRsDB are the noise levels swept in Fig. 3(c).
	SNRsDB []float64
	// NoiseM is the sensor count for Fig. 3(c). The paper uses 16.
	NoiseM int

	// LoadCoupling forwards to power.Config: the T1's throughput workloads
	// run strongly correlated cores, which is what makes the paper's 4-5
	// sensor operating point reachable. See DESIGN.md (trace substitution).
	LoadCoupling float64

	// Specs, when non-empty, replaces the default scenario mix with
	// declarative workload specs (dataset.GenConfig.Specs). The robustness
	// harness also uses them as its scenario families.
	Specs []*workload.Spec
}

// DefaultConfig returns the paper-scale configuration: 60×56 grid, T = 2652
// snapshots, sweeps matching the figures' axes.
func DefaultConfig() Config {
	return Config{
		Grid:         floorplan.Grid{W: 60, H: 56},
		Snapshots:    2652,
		KMax:         40,
		Seed:         2012,
		Ms:           []int{4, 6, 8, 12, 16, 20, 24, 28, 32},
		Ks:           []int{2, 4, 6, 8, 12, 16, 20, 24, 28, 32, 36},
		SNRsDB:       []float64{10, 15, 20, 25, 30, 40, 50},
		NoiseM:       16,
		LoadCoupling: power.DefaultLoadCoupling,
	}
}

// QuickConfig returns a reduced configuration (24×22 grid, 240 snapshots)
// that preserves every qualitative comparison while running in seconds.
func QuickConfig() Config {
	return Config{
		Grid:         floorplan.Grid{W: 24, H: 22},
		Snapshots:    240,
		KMax:         20,
		Seed:         2012,
		Ms:           []int{4, 8, 12, 16},
		Ks:           []int{2, 4, 8, 12, 16},
		SNRsDB:       []float64{10, 15, 25, 40},
		NoiseM:       16,
		LoadCoupling: power.DefaultLoadCoupling,
	}
}

// Timing records the wall-clock cost of each design-time phase, so tools
// like cmd/experiments can report where environment construction spends its
// time and which PCA eigensolver side was used.
type Timing struct {
	Simulate  time.Duration // ensemble generation (zero when a cached dataset is supplied)
	TrainPCA  time.Duration // EigenMaps training
	TrainKLSE time.Duration // DCT baseline training
	PCAMethod basis.PCAMethod
}

// Env holds the shared precomputed state every experiment driver reuses:
// the snapshot ensemble and both trained models.
type Env struct {
	Cfg    Config
	DS     *dataset.Dataset
	PCA    *core.Model // EigenMaps
	KLSE   *core.Model // DCT (energy-ranked), the k-LSE baseline
	Raster *floorplan.Raster
	Timing Timing
}

// NewEnv simulates the ensemble and trains both models.
func NewEnv(cfg Config) (*Env, error) {
	fp := floorplan.UltraSparcT1()
	start := time.Now()
	ds, err := dataset.Generate(fp, dataset.GenConfig{
		Grid:      cfg.Grid,
		Snapshots: cfg.Snapshots,
		Specs:     cfg.Specs,
		Seed:      cfg.Seed,
		Power:     power.Config{LoadCoupling: cfg.LoadCoupling},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: simulate: %w", err)
	}
	simTime := time.Since(start)
	env, err := NewEnvWithDataset(cfg, ds)
	if err != nil {
		return nil, err
	}
	env.Timing.Simulate = simTime
	return env, nil
}

// NewEnvWithDataset trains both models on a pre-generated (e.g. cached)
// ensemble; cfg.Grid/Snapshots are taken from the dataset.
func NewEnvWithDataset(cfg Config, ds *dataset.Dataset) (*Env, error) {
	cfg.Grid = ds.Grid
	cfg.Snapshots = ds.T()
	start := time.Now()
	pca, err := core.Train(ds, core.TrainOptions{KMax: cfg.KMax, Kind: core.BasisEigenMaps, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: train EigenMaps: %w", err)
	}
	pcaTime := time.Since(start)
	start = time.Now()
	klse, err := core.Train(ds, core.TrainOptions{KMax: cfg.KMax, Kind: core.BasisDCT, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: train k-LSE: %w", err)
	}
	klseTime := time.Since(start)
	return &Env{
		Cfg:    cfg,
		DS:     ds,
		PCA:    pca,
		KLSE:   klse,
		Raster: floorplan.UltraSparcT1().Rasterize(ds.Grid),
		Timing: Timing{
			TrainPCA:  pcaTime,
			TrainKLSE: klseTime,
			PCAMethod: pca.Basis.Method,
		},
	}, nil
}

// Series is one labeled curve of an experiment (X sorted ascending).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// formatSeries prints aligned columns: X then one column per series.
func formatSeries(title, xLabel string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-10s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %22s", s.Name)
	}
	b.WriteByte('\n')
	if len(series) == 0 {
		return b.String()
	}
	for i := range series[0].X {
		fmt.Fprintf(&b, "%-10.4g", series[0].X[i])
		for _, s := range series {
			fmt.Fprintf(&b, " %22.6g", s.Y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// mixSeed derives deterministic sub-seeds for independent noise draws.
func mixSeed(seed int64, salt int64) int64 { return seed*1_000_003 + salt }
