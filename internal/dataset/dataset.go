// Package dataset produces and manages the ensembles of thermal snapshots
// that EigenMaps is trained and evaluated on: it drives the power → thermal
// simulation pipeline, vectorizes maps with the paper's column-stacking
// convention, handles mean removal, and (de)serializes datasets so the
// full-scale ensemble can be cached between runs.
package dataset

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Dataset is an ensemble of T vectorized thermal maps on a common grid.
// Rows of Maps are snapshots (length N = W·H, in °C).
type Dataset struct {
	Grid floorplan.Grid
	Maps *mat.Matrix
}

// T returns the number of snapshots.
func (d *Dataset) T() int { return d.Maps.Rows() }

// N returns the number of cells per map.
func (d *Dataset) N() int { return d.Maps.Cols() }

// Map returns snapshot j as a view (do not mutate).
func (d *Dataset) Map(j int) []float64 { return d.Maps.Row(j) }

// Mean returns the per-cell ensemble mean map.
func (d *Dataset) Mean() []float64 {
	n := d.N()
	mean := make([]float64, n)
	for j := 0; j < d.T(); j++ {
		mat.AXPY(1, d.Map(j), mean)
	}
	mat.ScaleVec(1/float64(d.T()), mean)
	return mean
}

// Centered returns a centered copy of the snapshot matrix (each row minus the
// ensemble mean) together with the mean map. The paper assumes zero-mean
// vectors throughout Sec. 3; this is the "subtract the mean" footnote made
// explicit.
func (d *Dataset) Centered() (*mat.Matrix, []float64) {
	mean := d.Mean()
	x := d.Maps.Clone()
	for j := 0; j < x.Rows(); j++ {
		row := x.Row(j)
		for i := range row {
			row[i] -= mean[i]
		}
	}
	return x, mean
}

// Validate checks the dataset for non-finite values and inconsistent
// dimensions, returning a descriptive error for the first problem found.
// Training rejects invalid datasets up front rather than producing NaN
// bases.
func (d *Dataset) Validate() error {
	if d.Grid.N() != d.N() {
		return fmt.Errorf("dataset: grid %dx%d (N=%d) does not match map length %d",
			d.Grid.H, d.Grid.W, d.Grid.N(), d.N())
	}
	for j := 0; j < d.T(); j++ {
		for i, v := range d.Map(j) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset: map %d cell %d is %v", j, i, v)
			}
		}
	}
	return nil
}

// Stats summarizes a dataset for reporting.
type Stats struct {
	T, N       int
	MinC, MaxC float64
	MeanC      float64
}

// Stats computes ensemble statistics.
func (d *Dataset) Stats() Stats {
	s := Stats{T: d.T(), N: d.N()}
	if s.T == 0 || s.N == 0 {
		return s
	}
	lo, hi := mat.MinMax(d.Map(0))
	var sum float64
	for j := 0; j < s.T; j++ {
		row := d.Map(j)
		l, h := mat.MinMax(row)
		if l < lo {
			lo = l
		}
		if h > hi {
			hi = h
		}
		sum += mat.Mean(row)
	}
	s.MinC, s.MaxC = lo, hi
	s.MeanC = sum / float64(s.T)
	return s
}

// GenConfig parameterizes Generate.
type GenConfig struct {
	Grid      floorplan.Grid
	Snapshots int // total maps to produce; default 2652 (the paper's T)

	// Specs are declarative workload scenarios run back-to-back, splitting
	// Snapshots equally; the resulting ensemble mixes workload regimes like
	// the paper's trace set. Default: the registry presets web, compute,
	// mixed and idle.
	Specs []*workload.Spec

	// StepsPerSnapshot inserts extra un-recorded simulation steps between
	// snapshots (decorrelates consecutive maps). Default 1 (record every
	// step, like 3D-ICE's per-interval output).
	StepsPerSnapshot int

	Seed    int64
	Thermal thermal.Config
	Power   power.Config // Seed is overridden per segment
}

// ConfigError reports a GenConfig field that would silently produce a
// degenerate ensemble. Match with errors.As, or errors.Is against
// ErrInvalidConfig. It mirrors core.OptionError (which dataset cannot
// import without a cycle).
type ConfigError struct {
	Option string // offending field, e.g. "Snapshots"
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("dataset: invalid %s: %s", e.Option, e.Reason)
}

// Is makes every ConfigError match ErrInvalidConfig.
func (e *ConfigError) Is(target error) bool { return target == ErrInvalidConfig }

// ErrInvalidConfig is the errors.Is target for all ConfigError values.
var ErrInvalidConfig = errors.New("dataset: invalid generation config")

func (c *GenConfig) defaults() {
	if c.Grid.W == 0 || c.Grid.H == 0 {
		c.Grid = floorplan.Grid{W: 60, H: 56}
	}
	if c.Snapshots == 0 {
		c.Snapshots = 2652
	}
	if len(c.Specs) == 0 {
		c.Specs = []*workload.Spec{
			workload.Preset("web"), workload.Preset("compute"), workload.Preset("mixed"), workload.Preset("idle"),
		}
	}
	if c.StepsPerSnapshot <= 0 {
		c.StepsPerSnapshot = 1
	}
}

// validate rejects configurations that used to fail silently: fewer
// snapshots than scenarios gave the early scenarios zero snapshots and the
// last one everything, and a grid side below 1 would panic deep inside
// thermal.NewModel.
func (c *GenConfig) validate() error {
	if c.Grid.W < 1 || c.Grid.H < 1 {
		return &ConfigError{Option: "Grid", Reason: fmt.Sprintf(
			"%dx%d has a side below 1", c.Grid.W, c.Grid.H)}
	}
	for i, s := range c.Specs {
		if s == nil {
			return &ConfigError{Option: "Specs", Reason: fmt.Sprintf("spec %d is nil", i)}
		}
		if err := s.Validate(); err != nil {
			return &ConfigError{Option: "Specs", Reason: err.Error()}
		}
	}
	if c.Snapshots < len(c.Specs) {
		return &ConfigError{Option: "Snapshots", Reason: fmt.Sprintf(
			"%d snapshots cannot cover %d scenarios (each scenario segment needs at least one snapshot)",
			c.Snapshots, len(c.Specs))}
	}
	return nil
}

// Generate runs the full design-time pipeline: for each scenario segment it
// builds a workload generator, starts the thermal model at the steady state
// of the first power map, and records the die temperature after every
// StepsPerSnapshot transient steps.
//
// Scenario segments are split across all CPUs in contiguous chunks, and the
// segments of one chunk run in lock step: each step advances every
// segment's own seeded power generator, then solves all of their
// backward-Euler systems in one sweep over the model's factor
// (thermal.Model.StepBatchInto), which costs far less than a sweep per
// segment. Each segment owns its generator and Transient and writes to its
// own row range, while all of them share the model's factors read-only, and
// every segment's arithmetic runs in the order of a segment stepped alone,
// so the result is bit-identical to a sequential run for any CPU count
// (pinned by the determinism tests).
func Generate(fp *floorplan.Floorplan, cfg GenConfig) (*Dataset, error) {
	return generate(fp, cfg, 0)
}

// generate is Generate with an explicit goroutine cap for the segments
// (0 = all CPUs, 1 = every segment in one lock step); the tests vary it to
// pin bit-identity.
func generate(fp *floorplan.Floorplan, cfg GenConfig, workers int) (*Dataset, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := fp.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	raster := fp.Rasterize(cfg.Grid)
	model := thermal.NewModel(cfg.Grid, cfg.Thermal)

	maps := mat.New(cfg.Snapshots, cfg.Grid.N())
	// Segment si covers rows [starts[si], starts[si+1]); the last segment
	// absorbs the division remainder.
	nseg := len(cfg.Specs)
	perSeg := cfg.Snapshots / nseg
	starts := make([]int, nseg+1)
	for si := 0; si < nseg; si++ {
		starts[si] = si * perSeg
	}
	starts[nseg] = cfg.Snapshots

	errs := make([]error, nseg)
	mat.ParallelChunks(nseg, workers, func(lo, hi int) {
		generateSegments(fp, raster, model, &cfg, starts, lo, hi, maps, errs)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Dataset{Grid: cfg.Grid, Maps: maps}, nil
}

// segmentRun is one scenario segment in flight: its power generator, its
// transient, its cell power buffer and the rows it fills.
type segmentRun struct {
	name       string // for error reporting
	si         int
	gen        *power.Generator
	tr         *thermal.Transient
	cellP      []float64
	start, end int
}

// generateSegments simulates scenario segments [lo, hi) in lock step,
// writing segment si's snapshots into rows [starts[si], starts[si+1]) of
// maps and its error, if any, into errs[si]. Every segment starts at its
// own warm start; then each step spreads every running segment's next
// power map and advances all of their transients at once. Only the last
// segment can be longer than the others, so it finishes alone. The loop is
// allocation-free: power is spread into reused cell buffers and
// temperatures are written straight into the dataset rows (intermediate
// un-recorded steps land in one scratch row).
func generateSegments(fp *floorplan.Floorplan, raster *floorplan.Raster, model *thermal.Model,
	cfg *GenConfig, starts []int, lo, hi int, maps *mat.Matrix, errs []error) {
	runs := make([]segmentRun, 0, hi-lo)
	for si := lo; si < hi; si++ {
		r, err := startSegment(fp, raster, model, cfg, si)
		if err != nil {
			errs[si] = err
			continue
		}
		r.start, r.end = starts[si], starts[si+1]
		runs = append(runs, r)
	}
	trs := make([]*thermal.Transient, len(runs))
	cellP := make([][]float64, len(runs))
	dst := make([][]float64, len(runs))
	scratch := make([]float64, cfg.Grid.N())
	for row := 0; ; row++ {
		// Drop the segments whose rows are all written.
		live := runs[:0]
		for _, r := range runs {
			if r.start+row < r.end {
				live = append(live, r)
			}
		}
		runs = live
		if len(runs) == 0 {
			return
		}
		for v, r := range runs {
			trs[v], cellP[v] = r.tr, r.cellP
		}
		for k := 0; k < cfg.StepsPerSnapshot; k++ {
			for v, r := range runs {
				power.SpreadToCellsInto(r.cellP, raster, r.gen.Step())
				dst[v] = scratch
				if k == cfg.StepsPerSnapshot-1 {
					dst[v] = maps.Row(r.start + row)
				}
			}
			n := len(runs)
			if err := model.StepBatchInto(trs[:n], dst[:n], cellP[:n]); err != nil {
				for _, r := range runs {
					errs[r.si] = fmt.Errorf("dataset: scenario %v step: %w", r.name, err)
				}
				return
			}
		}
	}
}

// startSegment builds scenario segment si's seeded power generator and a
// transient warm-started at the steady state of its first power map.
func startSegment(fp *floorplan.Floorplan, raster *floorplan.Raster, model *thermal.Model,
	cfg *GenConfig, si int) (segmentRun, error) {
	pcfg := cfg.Power
	pcfg.Seed = cfg.Seed + int64(si)*7919
	r := segmentRun{si: si, name: cfg.Specs[si].Name}
	if r.name == "" {
		r.name = fmt.Sprintf("spec[%d]", si)
	}
	var err error
	if r.gen, err = power.NewSpecGenerator(fp, cfg.Specs[si], pcfg); err != nil {
		return r, fmt.Errorf("dataset: scenario %s: %w", r.name, err)
	}
	r.tr = model.NewTransient()
	r.cellP = make([]float64, cfg.Grid.N())
	power.SpreadToCellsInto(r.cellP, raster, r.gen.Step())
	if err := r.tr.SetSteadyState(r.cellP); err != nil {
		return r, fmt.Errorf("dataset: scenario %v warm start: %w", r.name, err)
	}
	return r, nil
}
