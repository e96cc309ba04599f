package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/floorplan"
	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/workload"
)

// GovernorConfig parameterizes the closed-loop control-quality harness: for
// every workload scenario it runs the monitor-in-the-loop thermal governor
// across an M×K sweep and scores each run against two reference arms — the
// oracle governor (same policy acting on the ground-truth map: the best any
// estimator can enable) and an ungoverned run (how hot the die gets with no
// control at all). A drift-faulted arm repeats the estimated sweep with
// injected sensor faults, measuring how much control quality survives a
// degraded sensor fleet. The paper evaluates reconstruction error offline;
// this harness closes the loop and asks the question that actually matters
// for DTM: does a governor driven by M sensors keep the die as cool as one
// that could see everything?
type GovernorConfig struct {
	// Floorplan is the governed die. Default: the 256-core generated
	// many-core plan (floorplan.Manycore(256, 64, 16×16)).
	Floorplan *floorplan.Floorplan

	Grid      floorplan.Grid // default 32×32
	Snapshots int            // training ensemble size per scenario, default 96
	KMax      int            // default 16
	Ks        []int          // subspace sweep, default {4, 8}
	Ms        []int          // sensor-budget sweep, default {8, 12, 24}
	Steps     int            // closed-loop steps per run, default 120
	Seed      int64

	// LoadCoupling is the default core coupling (default
	// power.DefaultLoadCoupling, the suite's regime). The hardware budgets
	// are power.ConfigFor's for the floorplan.
	LoadCoupling float64

	// Policy names the control policy every arm runs (default "hysteresis");
	// CeilingDropC positions each scenario's thermal ceiling CeilingDropC
	// degrees below that scenario's ungoverned peak (default 2 °C), so the
	// governor has real work to do in every scenario regardless of how hot
	// the workload runs.
	Policy       string
	CeilingDropC float64

	// Specs are the evaluated scenarios. Default: the web, compute, bursty
	// and wave catalog entries — two stationary and two time-structured
	// families.
	Specs []*workload.Spec

	// Faults configures the drift-faulted arm's injector
	// (drift.ParseFaults syntax). Default "stuck:0:40,offset:3:+5".
	Faults string
}

func (c *GovernorConfig) defaults() error {
	if c.Floorplan == nil {
		fp, err := floorplan.Manycore(256, 64, floorplan.Grid{W: 16, H: 16})
		if err != nil {
			return err
		}
		c.Floorplan = fp
	}
	if c.LoadCoupling == 0 {
		c.LoadCoupling = power.DefaultLoadCoupling
	}
	if c.Grid.W == 0 || c.Grid.H == 0 {
		c.Grid = floorplan.Grid{W: 32, H: 32}
	}
	if c.Snapshots == 0 {
		c.Snapshots = 96
	}
	if c.KMax == 0 {
		c.KMax = 16
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{4, 8}
	}
	if len(c.Ms) == 0 {
		c.Ms = []int{8, 12, 24}
	}
	if c.Steps == 0 {
		c.Steps = 120
	}
	if c.Policy == "" {
		c.Policy = "hysteresis"
	}
	if c.CeilingDropC == 0 {
		c.CeilingDropC = 2
	}
	if len(c.Specs) == 0 {
		for _, name := range []string{"web", "compute", "bursty", "wave"} {
			s, err := workload.Parse(name)
			if err != nil {
				return err
			}
			c.Specs = append(c.Specs, s)
		}
	}
	if c.Faults == "" {
		c.Faults = "stuck:0:40,offset:3:+5"
	}
	return nil
}

// GovernorArm is one closed-loop run's scorecard within the sweep.
type GovernorArm struct {
	PeakC           float64
	CorePeakC       float64
	OvershootC      float64
	ViolationDegSec float64
	ThrottleDuty    float64
	PerfRetained    float64
	EstPeakErrC     float64
}

func armOf(r *governor.Result) GovernorArm {
	return GovernorArm{
		PeakC:           r.PeakC,
		CorePeakC:       r.CorePeakC,
		OvershootC:      r.OvershootC,
		ViolationDegSec: r.ViolationDegSec,
		ThrottleDuty:    r.ThrottleDuty,
		PerfRetained:    r.PerfRetained,
		EstPeakErrC:     r.EstPeakErrC,
	}
}

// GovernorResult is the control-quality sweep: per scenario, the ungoverned
// peak, the oracle arm, and the estimated + drift-faulted arms over the
// M×K matrix.
type GovernorResult struct {
	Scenarios []string
	Ms, Ks    []int
	Policy    string
	Floorplan string

	// UngovernedPeakC[s] is the run's global peak with no governor;
	// UngovernedCorePeakC[s] is the same over core cells only — the ceiling
	// CeilingC[s] every governed arm is held to sits CeilingDropC below it,
	// because DVFS capping can only influence core heat (a cache or NoC
	// block can carry the global peak with no actuator over it).
	UngovernedPeakC     []float64
	UngovernedCorePeakC []float64
	CeilingC            []float64

	// Oracle[s] is the ground-truth-governed arm (estimator-independent, so
	// one per scenario). Est[s][mi][ki] and Faulted[s][mi][ki] are the
	// estimated-map arms, clean and drift-faulted.
	Oracle  []GovernorArm
	Est     [][][]GovernorArm
	Faulted [][][]GovernorArm
}

// Governor runs the closed-loop sweep.
func Governor(cfg GovernorConfig) (*GovernorResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	faults, err := drift.ParseFaults(cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("governor sweep: faults: %w", err)
	}
	pcfg := power.ConfigFor(cfg.Floorplan, cfg.LoadCoupling)
	ns := len(cfg.Specs)
	res := &GovernorResult{
		Scenarios:           make([]string, ns),
		Ms:                  cfg.Ms,
		Ks:                  cfg.Ks,
		Policy:              cfg.Policy,
		Floorplan:           cfg.Floorplan.Name,
		UngovernedPeakC:     make([]float64, ns),
		UngovernedCorePeakC: make([]float64, ns),
		CeilingC:            make([]float64, ns),
		Oracle:              make([]GovernorArm, ns),
		Est:                 make([][][]GovernorArm, ns),
		Faulted:             make([][][]GovernorArm, ns),
	}

	for si, spec := range cfg.Specs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("spec[%d]", si)
		}
		res.Scenarios[si] = name

		base := governor.LoopConfig{
			Plan:  cfg.Floorplan,
			Grid:  cfg.Grid,
			Spec:  spec,
			Power: pcfg,
			Steps: cfg.Steps,
			Seed:  mixSeed(cfg.Seed, int64(si)),
		}

		// Ungoverned reference: an infinite-trip threshold policy never
		// throttles, so the loop runs open. The ceiling is positioned
		// CeilingDropC below this run's peak — binding in every scenario.
		base.Policy = &governor.Threshold{TripC: math.Inf(1)}
		base.CeilingC = math.Inf(1)
		open, err := governor.Run(base)
		if err != nil {
			return nil, fmt.Errorf("governor sweep: %s ungoverned: %w", name, err)
		}
		res.UngovernedPeakC[si] = open.PeakC
		res.UngovernedCorePeakC[si] = open.CorePeakC
		ceiling := open.CorePeakC - cfg.CeilingDropC
		res.CeilingC[si] = ceiling

		newPolicy := func() (governor.Policy, error) {
			return governor.NewPolicy(cfg.Policy, governor.Params{CeilingC: ceiling})
		}

		// Oracle arm: the governor reads ground truth.
		if base.Policy, err = newPolicy(); err != nil {
			return nil, fmt.Errorf("governor sweep: %s: %w", name, err)
		}
		base.CeilingC = ceiling
		oracle, err := governor.Run(base)
		if err != nil {
			return nil, fmt.Errorf("governor sweep: %s oracle: %w", name, err)
		}
		res.Oracle[si] = armOf(oracle)

		// One training ensemble per scenario, seed-disjoint from the loop.
		train, err := dataset.Generate(cfg.Floorplan, dataset.GenConfig{
			Grid:      cfg.Grid,
			Snapshots: cfg.Snapshots,
			Specs:     []*workload.Spec{spec},
			Seed:      mixSeed(cfg.Seed, 100_000+int64(si)),
			Power:     pcfg,
		})
		if err != nil {
			return nil, fmt.Errorf("governor sweep: %s ensemble: %w", name, err)
		}
		model, err := core.Train(train, core.TrainOptions{KMax: cfg.KMax, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("governor sweep: %s train: %w", name, err)
		}

		res.Est[si] = make([][]GovernorArm, len(cfg.Ms))
		res.Faulted[si] = make([][]GovernorArm, len(cfg.Ms))
		for mi, m := range cfg.Ms {
			res.Est[si][mi] = make([]GovernorArm, len(cfg.Ks))
			res.Faulted[si][mi] = make([]GovernorArm, len(cfg.Ks))
			for ki, k := range cfg.Ks {
				sensors, err := model.PlaceSensors(m, core.PlaceOptions{K: k})
				if err != nil {
					return nil, fmt.Errorf("governor sweep: %s place M=%d K=%d: %w", name, m, k, err)
				}
				if len(sensors) > m {
					sensors = sensors[:m]
				}
				mon, err := model.NewMonitor(k, sensors)
				if err != nil {
					return nil, fmt.Errorf("governor sweep: %s monitor M=%d K=%d: %w", name, m, k, err)
				}
				arm := base
				arm.Estimator = mon
				arm.Sensors = sensors
				if arm.Policy, err = newPolicy(); err != nil {
					return nil, err
				}
				est, err := governor.Run(arm)
				if err != nil {
					return nil, fmt.Errorf("governor sweep: %s est M=%d K=%d: %w", name, m, k, err)
				}
				res.Est[si][mi][ki] = armOf(est)

				arm.Injector = drift.NewInjector(faults, mixSeed(cfg.Seed, 200_000+int64(si)))
				if arm.Policy, err = newPolicy(); err != nil {
					return nil, err
				}
				faulted, err := governor.Run(arm)
				if err != nil {
					return nil, fmt.Errorf("governor sweep: %s faulted M=%d K=%d: %w", name, m, k, err)
				}
				res.Faulted[si][mi][ki] = armOf(faulted)
			}
		}
	}
	return res, nil
}

// PeakGapC returns the worst (max over scenarios) estimated-arm peak
// temperature excess over the oracle arm at sweep point (mi, ki) — how many
// degrees of control quality the sensor budget costs.
func (r *GovernorResult) PeakGapC(mi, ki int) float64 {
	worst := math.Inf(-1)
	for si := range r.Scenarios {
		if gap := r.Est[si][mi][ki].CorePeakC - r.Oracle[si].CorePeakC; gap > worst {
			worst = gap
		}
	}
	return worst
}

// MinPerfRetained returns the smallest estimated-arm performance retention
// across scenarios at sweep point (mi, ki).
func (r *GovernorResult) MinPerfRetained(mi, ki int) float64 {
	min := math.Inf(1)
	for si := range r.Scenarios {
		if p := r.Est[si][mi][ki].PerfRetained; p < min {
			min = p
		}
	}
	return min
}

// String renders the sweep: per scenario the reference arms, then the M×K
// matrices of peak gap to oracle and performance retained.
func (r *GovernorResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Closed-loop control quality: %s policy on %s ==\n", r.Policy, r.Floorplan)
	for si, name := range r.Scenarios {
		o := &r.Oracle[si]
		fmt.Fprintf(&b, "\n-- %s: ungoverned peak %.2f °C (core %.2f), ceiling %.2f °C --\n",
			name, r.UngovernedPeakC[si], r.UngovernedCorePeakC[si], r.CeilingC[si])
		fmt.Fprintf(&b, "oracle: core peak %.2f °C, duty %.3f, perf %.3f, violation %.4g °C·s\n",
			o.CorePeakC, o.ThrottleDuty, o.PerfRetained, o.ViolationDegSec)
		fmt.Fprintf(&b, "%-8s", "est")
		for _, k := range r.Ks {
			fmt.Fprintf(&b, " %18s", fmt.Sprintf("K=%d", k))
		}
		fmt.Fprintf(&b, "\n")
		for mi, m := range r.Ms {
			fmt.Fprintf(&b, "M=%-6d", m)
			for ki := range r.Ks {
				e := &r.Est[si][mi][ki]
				fmt.Fprintf(&b, " %18s", fmt.Sprintf("Δ%.2f°C p%.3f", e.CorePeakC-o.CorePeakC, e.PerfRetained))
			}
			fmt.Fprintf(&b, "\n")
		}
		fmt.Fprintf(&b, "%-8s\n", "faulted")
		for mi, m := range r.Ms {
			fmt.Fprintf(&b, "M=%-6d", m)
			for ki := range r.Ks {
				f := &r.Faulted[si][mi][ki]
				fmt.Fprintf(&b, " %18s", fmt.Sprintf("Δ%.2f°C p%.3f", f.CorePeakC-o.CorePeakC, f.PerfRetained))
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	mi, ki := len(r.Ms)-1, len(r.Ks)-1
	fmt.Fprintf(&b, "\nat M=%d K=%d: worst est-vs-oracle peak gap %.2f °C, min perf retained %.3f\n",
		r.Ms[mi], r.Ks[ki], r.PeakGapC(mi, ki), r.MinPerfRetained(mi, ki))
	return b.String()
}
