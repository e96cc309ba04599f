package governor

import (
	"fmt"
	"math"

	"repro/internal/drift"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Estimator reconstructs a full thermal map from sensor readings.
// *core.Monitor satisfies it; the Loop never imports internal/core so the
// control layer stays decoupled from the reconstruction layer.
type Estimator interface {
	EstimateInto(dst, readings []float64) error
}

// LoopConfig describes one closed-loop transient run: a workload spec drives
// a power generator, the governor caps per-core power from the *estimated*
// map, and the capped vector feeds back into the factor-once transient
// solver. Setting Estimator to nil selects the oracle arm — the governor
// reads the ground-truth map directly, the upper bound the estimated arm is
// measured against.
type LoopConfig struct {
	Plan *floorplan.Floorplan
	Grid floorplan.Grid
	Spec *workload.Spec

	// Power supplies the hardware budgets (power.ConfigFor for manycore
	// scaling). Its effective CoreIdleW/CoreBusyW are also what the loop
	// inverts to recover per-core activity from demand watts.
	Power power.Config

	Steps int
	Seed  int64

	// Policy drives the Controller, over DefaultLadder.
	Policy Policy

	// CeilingC is the thermal ceiling violations are scored against (on the
	// TRUE map — the governor may only ever see estimates, but physics is
	// judged on ground truth).
	CeilingC float64

	// Estimator + Sensors select the estimated arm: readings are the true
	// temperatures at Sensors (cell indices), optionally corrupted by
	// Injector, and the governor acts on Estimator's reconstruction.
	Estimator Estimator
	Sensors   []int
	Injector  *drift.Injector
}

// Metrics are the closed-loop quality numbers a run accumulates. All
// temperatures are °C and judged on the ground-truth map.
type Metrics struct {
	Steps int

	// PeakC is the hottest cell temperature seen across the run; OvershootC
	// is how far it exceeded the ceiling (0 when the ceiling held).
	PeakC      float64
	OvershootC float64

	// CorePeakC is the hottest CORE-cell temperature seen (ground truth) —
	// the part of the die DVFS capping can actually influence. Caches, NoC
	// and uncore blocks can carry the global PeakC without the governor
	// having any actuator over them.
	CorePeakC float64

	// ViolationSteps counts steps whose peak exceeded the ceiling;
	// ViolationDegSec integrates the excess over time (°C·s) — the sustained
	// ceiling-violation signal docs/OPERATIONS.md alerts on.
	ViolationSteps  int
	ViolationDegSec float64

	// ThrottleDuty is the fraction of core-steps spent below nominal
	// frequency.
	ThrottleDuty float64

	// PerfRetained is delivered over demanded activity·frequency: capping a
	// core to relative frequency f delivers f of its demanded throughput
	// while cutting dynamic power to f³. 1.0 = no throughput lost.
	PerfRetained float64

	// EstPeakErrC is the mean |estimated − true| per-step peak temperature —
	// how well the map the governor actually saw tracked physics (0 for the
	// oracle arm).
	EstPeakErrC float64

	// MeanPowerW is the mean total applied block power per step.
	MeanPowerW float64

	// CapHash is an FNV-1a digest of the full per-step, per-core level
	// schedule: two runs governed identically iff their hashes match
	// (the determinism pin).
	CapHash uint64
}

// Result is one closed-loop run's metrics plus the final cap state.
type Result struct {
	Metrics
	// FinalLevels is the per-core ladder level after the last step.
	FinalLevels []int
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashLevels folds one step's cap decisions into an FNV-1a digest.
// ValidateLadder caps ladders at 256 levels, so a level is one byte.
func hashLevels(h uint64, levels []int) uint64 {
	for _, l := range levels {
		h = (h ^ uint64(byte(l))) * fnvPrime64
	}
	return h
}

// Run executes one closed-loop transient simulation and returns its metrics.
// The run is deterministic given the config (same seed ⇒ bit-identical cap
// schedule): the workload generator, the injector and every policy are
// seeded or stateless, and the solver is the exact factor-once direct arm.
//
// Control timing: the level decided from step t's map caps step t+1's power
// — one step of actuation latency, matching a real governor that programs
// the next interval's frequency from the current sample.
func Run(cfg LoopConfig) (*Result, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("governor: nil floorplan")
	}
	if cfg.Spec == nil {
		return nil, fmt.Errorf("governor: nil workload spec")
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("governor: %d steps, want > 0", cfg.Steps)
	}
	if !(cfg.CeilingC > 0) {
		return nil, fmt.Errorf("governor: ceiling %v °C, want > 0", cfg.CeilingC)
	}
	if cfg.Grid.W < 1 || cfg.Grid.H < 1 {
		return nil, fmt.Errorf("governor: grid %dx%d has a side below 1", cfg.Grid.W, cfg.Grid.H)
	}
	n := cfg.Grid.N()
	if cfg.Estimator != nil && len(cfg.Sensors) == 0 {
		return nil, fmt.Errorf("governor: estimator set but no sensors given")
	}
	for _, s := range cfg.Sensors {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("governor: sensor cell %d outside the %d-cell grid", s, n)
		}
	}

	raster := cfg.Plan.Rasterize(cfg.Grid)
	ctrl, err := NewController(cfg.Policy, nil, CoreCells(cfg.Plan, raster))
	if err != nil {
		return nil, err
	}

	pcfg := cfg.Power
	pcfg.Seed = cfg.Seed
	gen, err := power.NewSpecGenerator(cfg.Plan, cfg.Spec, pcfg)
	if err != nil {
		return nil, err
	}
	eff := pcfg.WithDefaults()
	idleW, busyW := eff.CoreIdleW, eff.CoreBusyW

	model := thermal.NewModel(cfg.Grid, thermal.Config{})
	tr := model.NewTransient()
	dt := model.Cfg.DtSeconds

	coreBlocks := cfg.Plan.KindBlocks(floorplan.KindCore)
	cellP := make([]float64, n)
	trueT := make([]float64, n)
	estT := make([]float64, n)
	readings := make([]float64, len(cfg.Sensors))

	// Warm-up: steady state under the first demand vector, uncapped — the
	// governor starts from the thermal field it will actually inherit.
	if err := tr.SetSteadyState(steadyPowers(raster, gen.Step(), cellP)); err != nil {
		return nil, err
	}

	res := &Result{}
	res.CapHash = fnvOffset64
	var demanded, delivered float64
	var throttledCoreSteps int
	var estErrSum, powerSum float64
	top := len(ctrl.ladder) - 1
	peak := math.Inf(-1)
	corePeak := math.Inf(-1)

	for step := 0; step < cfg.Steps; step++ {
		blockP := gen.Step()
		levels := ctrl.Levels()
		for ci, b := range coreBlocks {
			f := ctrl.Freq(levels[ci])
			a := (blockP[b] - idleW) / (busyW - idleW)
			if a < 0 {
				a = 0
			}
			demanded += a
			delivered += a * f
			if levels[ci] < top {
				throttledCoreSteps++
			}
			if blockP[b] > idleW {
				// f³ dynamic-power scaling on the demand above idle; static
				// (idle) power is frequency-independent in this model.
				blockP[b] = idleW + (blockP[b]-idleW)*f*f*f
			}
		}
		power.SpreadToCellsInto(cellP, raster, blockP)
		powerSum += power.TotalPower(blockP)
		if err := tr.StepInto(trueT, cellP); err != nil {
			return nil, err
		}

		stepPeak := maxOf(trueT)
		if stepPeak > peak {
			peak = stepPeak
		}
		for _, cells := range ctrl.cells {
			for _, i := range cells {
				if trueT[i] > corePeak {
					corePeak = trueT[i]
				}
			}
		}
		if stepPeak > cfg.CeilingC {
			res.ViolationSteps++
			res.ViolationDegSec += (stepPeak - cfg.CeilingC) * dt
		}

		seen := trueT
		if cfg.Estimator != nil {
			for i, s := range cfg.Sensors {
				readings[i] = trueT[s]
			}
			if cfg.Injector != nil {
				cfg.Injector.Apply(readings)
			}
			if err := cfg.Estimator.EstimateInto(estT, readings); err != nil {
				return nil, fmt.Errorf("governor: step %d estimate: %w", step, err)
			}
			seen = estT
			estErrSum += math.Abs(maxOf(estT) - stepPeak)
		}
		res.CapHash = hashLevels(res.CapHash, ctrl.Step(seen))
	}

	res.Steps = cfg.Steps
	res.PeakC = peak
	res.CorePeakC = corePeak
	if peak > cfg.CeilingC {
		res.OvershootC = peak - cfg.CeilingC
	}
	res.ThrottleDuty = float64(throttledCoreSteps) / float64(len(coreBlocks)*cfg.Steps)
	res.PerfRetained = 1
	if demanded > 0 {
		res.PerfRetained = delivered / demanded
	}
	res.EstPeakErrC = estErrSum / float64(cfg.Steps)
	res.MeanPowerW = powerSum / float64(cfg.Steps)
	res.FinalLevels = append([]int(nil), ctrl.Levels()...)
	return res, nil
}

// steadyPowers spreads one uncapped demand vector onto the raster for the
// warm-up steady solve, reusing the loop's cell buffer.
func steadyPowers(r *floorplan.Raster, blockP, cellP []float64) []float64 {
	power.SpreadToCellsInto(cellP, r, blockP)
	return cellP
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}
