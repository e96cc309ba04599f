package eigenmaps

import (
	"repro/internal/floorplan"
	"repro/internal/governor"
)

// GovernorOptions configures a closed-loop DVFS governor built over the T1
// floorplan's cores. Zero-valued tuning fields derive their defaults from
// CeilingC exactly as the daemon's govern route does (trip one degree below
// the ceiling, a 3 °C hysteresis band, conservative PI gains).
type GovernorOptions struct {
	// Policy names the control law: "threshold", "hysteresis" (the default)
	// or "pi".
	Policy string

	// CeilingC is the thermal ceiling in °C. Required: every policy's
	// setpoints derive from it.
	CeilingC float64

	// Optional per-policy overrides — see the policy descriptions in
	// docs/API.md. Zero means "derive from CeilingC".
	TripC, SetC, ClearC float64
	TargetC, Kp, Ki     float64

	// Ladder is the ascending relative-frequency ladder the governor caps
	// cores onto, topping out at 1.0. Nil selects {0.5, 0.7, 0.85, 1.0}.
	Ladder []float64
}

// Governor caps per-core DVFS levels from a thermal map — typically an
// EigenMaps estimate, closing the monitor → control loop the paper's sensor
// budget exists to enable. It is deterministic and allocation-free per Step,
// so the same map sequence always yields the same cap schedule.
type Governor struct {
	ctrl *governor.Controller
}

// NewT1Governor builds a governor over the UltraSPARC T1 floorplan's eight
// cores rasterized on g — the companion to SimulateT1 and AnalyzeT1.
func NewT1Governor(g Grid, opt GovernorOptions) (*Governor, error) {
	name := opt.Policy
	if name == "" {
		name = "hysteresis"
	}
	pol, err := governor.NewPolicy(name, governor.Params{
		CeilingC: opt.CeilingC,
		TripC:    opt.TripC,
		SetC:     opt.SetC,
		ClearC:   opt.ClearC,
		TargetC:  opt.TargetC,
		Kp:       opt.Kp,
		Ki:       opt.Ki,
	})
	if err != nil {
		return nil, err
	}
	fp := floorplan.UltraSparcT1()
	raster := fp.Rasterize(g.internal())
	ctrl, err := governor.NewController(pol, opt.Ladder, governor.CoreCells(fp, raster))
	if err != nil {
		return nil, err
	}
	return &Governor{ctrl: ctrl}, nil
}

// Step reads one thermal map (len Grid.N(), °C) and returns the per-core
// ladder levels to apply for the next interval. The returned slice is reused
// across calls; copy it to retain.
func (g *Governor) Step(mapC []float64) []int { return g.ctrl.Step(mapC) }

// Levels returns the current per-core ladder levels without stepping.
func (g *Governor) Levels() []int { return g.ctrl.Levels() }

// Freq maps a ladder level to its relative frequency in (0, 1].
func (g *Governor) Freq(level int) float64 { return g.ctrl.Freq(level) }

// Ladder returns a copy of the governor's frequency ladder.
func (g *Governor) Ladder() []float64 { return g.ctrl.Ladder() }

// Cores returns the number of governed cores.
func (g *Governor) Cores() int { return g.ctrl.Cores() }

// Policy returns the active policy's registered name.
func (g *Governor) Policy() string { return g.ctrl.Policy() }

// Throttled returns how many cores currently sit below the ladder top.
func (g *Governor) Throttled() int { return g.ctrl.Throttled() }
