// Package eigenmaps reproduces "EigenMaps: Algorithms for Optimal Thermal
// Maps Extraction and Sensor Placement on Multicore Processors"
// (Ranieri, Vincenzi, Chebira, Atienza, Vetterli — DAC 2012) as a
// self-contained Go library.
//
// The library covers the paper's complete pipeline:
//
//   - a compact transient RC thermal simulator (a 3D-ICE substitute) driving
//     an 8-core UltraSPARC T1 floorplan under synthetic workload power
//     traces, producing the design-time snapshot ensemble — workloads are
//     declarative, JSON-serializable scenario specs (see WorkloadSpec and
//     the registry behind WorkloadNames), with the classic presets
//     available by name;
//   - the optimal low-dimensional approximation of thermal maps by PCA
//     ("EigenMaps", Proposition 1), with the DCT subspace of the k-LSE
//     baseline alongside;
//   - least-squares reconstruction of full maps from M ≥ K sensor readings
//     (Theorem 1), stable under measurement noise;
//   - sensor allocation by the paper's greedy correlation-elimination
//     (Algorithm 1), the energy-center heuristic it is compared against,
//     and placement masks for design constraints ("no sensors in caches").
//
// # Quick start
//
//	ens, _ := eigenmaps.SimulateT1(eigenmaps.SimOptions{Snapshots: 600, Seed: 1})
//	model, _ := eigenmaps.Train(ens, eigenmaps.TrainOptions{KMax: 32})
//	sensors, _ := model.PlaceSensors(4, eigenmaps.PlaceOptions{})
//	mon, _ := model.NewMonitor(4, sensors)
//	estimate, _ := mon.Estimate(readings) // readings: °C at the 4 sensors
//
// Everything is deterministic given the seeds in the option structs, and the
// implementation uses only the Go standard library.
package eigenmaps

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/render"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Grid is the discretization of the die into H rows × W columns; thermal
// maps are vectors of length W·H in column-stacked order (x[col·H+row]).
type Grid struct {
	W, H int
}

// N returns the number of cells.
func (g Grid) N() int { return g.W * g.H }

func (g Grid) internal() floorplan.Grid { return floorplan.Grid{W: g.W, H: g.H} }

// Ensemble is a set of simulated thermal maps used to train and evaluate
// models.
type Ensemble struct {
	ds *dataset.Dataset
}

// T returns the number of maps in the ensemble.
func (e *Ensemble) T() int { return e.ds.T() }

// N returns the cells per map.
func (e *Ensemble) N() int { return e.ds.N() }

// Grid returns the ensemble's grid.
func (e *Ensemble) Grid() Grid { return Grid{W: e.ds.Grid.W, H: e.ds.Grid.H} }

// Map returns map j (°C, column-stacked). The slice is a view; do not
// modify it.
func (e *Ensemble) Map(j int) []float64 { return e.ds.Map(j) }

// Save writes the ensemble in the library's binary format.
func (e *Ensemble) Save(w io.Writer) error { return e.ds.Save(w) }

// SaveFile writes the ensemble to a file.
func (e *Ensemble) SaveFile(path string) error { return e.ds.SaveFile(path) }

// LoadEnsemble reads an ensemble written by Save.
func LoadEnsemble(r io.Reader) (*Ensemble, error) {
	ds, err := dataset.Load(r)
	if err != nil {
		return nil, err
	}
	return &Ensemble{ds: ds}, nil
}

// LoadEnsembleFile reads an ensemble from a file.
func LoadEnsembleFile(path string) (*Ensemble, error) {
	ds, err := dataset.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Ensemble{ds: ds}, nil
}

// Workload names a power-trace scenario from the workload registry. Beyond
// the four classic presets below, any name in WorkloadNames() is valid —
// e.g. "bursty" (MMPP flash-crowd arrivals), "wave" (duty-cycled
// streaming), "dvfs" (frequency-throttled compute) or "thrash" (scheduler
// churn).
type Workload string

// The classic workload presets.
const (
	WorkloadWeb     Workload = "web"
	WorkloadCompute Workload = "compute"
	WorkloadMixed   Workload = "mixed"
	WorkloadIdle    Workload = "idle"
)

func (w Workload) internal() (*workload.Spec, error) {
	s, err := workload.Parse(string(w))
	if err != nil {
		return nil, fmt.Errorf("eigenmaps: unknown workload %q (known: %s)",
			w, strings.Join(workload.Names(), ", "))
	}
	return s, nil
}

// WorkloadSpec is a declarative, JSON-serializable workload scenario: a
// phase schedule of Markov activity regimes plus optional bursty (MMPP)
// arrivals, task-migration chains, DVFS ladders and periodic duty
// envelopes. Build one from JSON with ParseWorkloadSpec, or fetch a
// registry entry with NamedWorkload; pass it to SimOptions.Specs. Traces
// are bit-reproducible given (spec, seed).
type WorkloadSpec struct {
	spec *workload.Spec
}

// ParseWorkloadSpec decodes and validates a JSON workload spec. Unknown
// fields are rejected, so a spec written for a different schema version
// fails loudly instead of silently dropping dynamics.
func ParseWorkloadSpec(data []byte) (*WorkloadSpec, error) {
	s, err := workload.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("eigenmaps: %w", err)
	}
	return &WorkloadSpec{spec: s}, nil
}

// NamedWorkload fetches a scenario spec from the workload registry.
func NamedWorkload(name string) (*WorkloadSpec, error) {
	s, err := workload.Parse(name)
	if err != nil {
		return nil, fmt.Errorf("eigenmaps: %w", err)
	}
	return &WorkloadSpec{spec: s}, nil
}

// WorkloadNames lists the registered scenario names, sorted.
func WorkloadNames() []string { return workload.Names() }

// Name returns the spec's name (may be empty for inline specs).
func (w *WorkloadSpec) Name() string { return w.spec.Name }

// MarshalJSON renders the spec in its canonical JSON schema.
func (w *WorkloadSpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(w.spec)
}

// UnmarshalJSON decodes and validates a spec (strict schema, like
// ParseWorkloadSpec).
func (w *WorkloadSpec) UnmarshalJSON(data []byte) error {
	s, err := workload.Decode(data)
	if err != nil {
		return fmt.Errorf("eigenmaps: %w", err)
	}
	w.spec = s
	return nil
}

// SimOptions parameterize SimulateT1. The zero value reproduces the paper's
// setup: a 60×56 grid and 2652 snapshots over a mix of workloads.
type SimOptions struct {
	// Grid defaults to the paper's 60×56 (N = 3360).
	Grid Grid
	// Snapshots defaults to the paper's T = 2652.
	Snapshots int
	// Workloads are run back-to-back, splitting Snapshots equally.
	// Default: web, compute, mixed, idle. Any registry name is accepted
	// (see WorkloadNames).
	Workloads []Workload
	// Specs are declarative workload scenarios (see ParseWorkloadSpec),
	// run back-to-back after any Workloads. Named presets passed either
	// way produce bit-identical ensembles.
	Specs []*WorkloadSpec
	// Seed makes the simulation reproducible.
	Seed int64
	// EnableLeakage adds temperature-dependent leakage feedback.
	EnableLeakage bool
	// LoadCoupling ∈ [0,1] correlates the cores' utilization (0 = fully
	// independent cores; throughput workloads like the T1's sit near 0.75,
	// the value the experiment suite uses). Zero means independent.
	LoadCoupling float64
}

// SimulateT1 runs the design-time thermal simulation of the bundled 8-core
// UltraSPARC T1 floorplan and returns the snapshot ensemble. Workload
// segments are simulated concurrently on all CPUs; the ensemble does not
// depend on the CPU count.
func SimulateT1(opt SimOptions) (*Ensemble, error) {
	cfg := dataset.GenConfig{
		Grid:      opt.Grid.internal(),
		Snapshots: opt.Snapshots,
		Seed:      opt.Seed,
		Power:     power.Config{LoadCoupling: opt.LoadCoupling},
	}
	for _, w := range opt.Workloads {
		s, err := w.internal()
		if err != nil {
			return nil, err
		}
		cfg.Specs = append(cfg.Specs, s)
	}
	for i, ws := range opt.Specs {
		if ws == nil || ws.spec == nil {
			return nil, fmt.Errorf("eigenmaps: SimOptions.Specs[%d] is nil", i)
		}
		cfg.Specs = append(cfg.Specs, ws.spec)
	}
	if opt.EnableLeakage {
		cfg.Thermal.Leakage = thermal.DefaultLeakage()
	}
	ds, err := dataset.Generate(floorplan.UltraSparcT1(), cfg)
	if err != nil {
		return nil, err
	}
	return &Ensemble{ds: ds}, nil
}

// RenderASCII draws map x (length N) as ASCII art, optionally marking sensor
// cells with 'S'.
func RenderASCII(g Grid, x []float64, sensors []int) string {
	return render.ASCII(g.internal(), x, render.Options{Sensors: sensors})
}

// T1SensorMask returns the placement mask for the bundled T1 floorplan that
// forbids the given block kinds ("cache", "core", "crossbar", "fpu") — the
// paper's Fig. 6 constraint is T1SensorMask(g, "cache").
func T1SensorMask(g Grid, forbidden ...string) ([]bool, error) {
	var kinds []floorplan.Kind
	for _, f := range forbidden {
		switch f {
		case "cache":
			kinds = append(kinds, floorplan.KindCache)
		case "core":
			kinds = append(kinds, floorplan.KindCore)
		case "crossbar":
			kinds = append(kinds, floorplan.KindCrossbar)
		case "fpu":
			kinds = append(kinds, floorplan.KindFPU)
		default:
			return nil, fmt.Errorf("eigenmaps: unknown block kind %q", f)
		}
	}
	raster := floorplan.UltraSparcT1().Rasterize(g.internal())
	return raster.MaskExcludingKinds(kinds...), nil
}
