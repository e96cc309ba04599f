package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/floorplan"
	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/workload"
)

// governConfig carries the -govern* flag values into the closed-loop mode.
type governConfig struct {
	Policy   string  // policy name; "" disables the mode
	CeilingC float64 // 0 = auto: ungoverned core peak − 2 °C per scenario
	Steps    int
	M        int // sensors for the estimated arm; 0 = oracle
	K        int // monitor subspace when M > 0
	Faults   string
}

// runGovern is thermsim's closed-loop mode: instead of writing an ensemble,
// it runs the monitor-in-the-loop governor over each scenario and prints the
// run's control metrics. With -govern-m 0 the governor reads ground truth
// (the oracle arm); with -govern-m M it first simulates a training ensemble,
// trains the EigenMaps model, places M sensors and governs from the
// reconstructed map — the deployment configuration.
func runGovern(fp *floorplan.Floorplan, grid floorplan.Grid, specs []*workload.Spec,
	pcfg power.Config, snapshots int, seed int64, gc governConfig) error {
	pol := func(ceiling float64) (governor.Policy, error) {
		return governor.NewPolicy(gc.Policy, governor.Params{CeilingC: ceiling})
	}
	if _, err := pol(80); err != nil {
		return err
	}
	var faults []drift.Fault
	if gc.Faults != "" {
		var err error
		if faults, err = drift.ParseFaults(gc.Faults); err != nil {
			return err
		}
	}

	for si, spec := range specs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("spec[%d]", si)
		}
		base := governor.LoopConfig{
			Plan:  fp,
			Grid:  grid,
			Spec:  spec,
			Power: pcfg,
			Steps: gc.Steps,
			Seed:  seed + int64(si),
		}

		ceiling := gc.CeilingC
		if ceiling == 0 {
			// Auto ceiling: 2 °C below this scenario's ungoverned core peak,
			// so the governor binds regardless of how hot the workload runs.
			base.Policy = &governor.Threshold{TripC: math.Inf(1)}
			base.CeilingC = math.Inf(1)
			open, err := governor.Run(base)
			if err != nil {
				return fmt.Errorf("%s ungoverned: %w", name, err)
			}
			ceiling = open.CorePeakC - 2
		}

		var err error
		if base.Policy, err = pol(ceiling); err != nil {
			return err
		}
		base.CeilingC = ceiling

		arm := "oracle"
		if gc.M > 0 {
			arm = fmt.Sprintf("estimated (M=%d, K=%d)", gc.M, gc.K)
			train, err := dataset.Generate(fp, dataset.GenConfig{
				Grid:      grid,
				Snapshots: snapshots,
				Specs:     []*workload.Spec{spec},
				Seed:      seed + 100_000 + int64(si),
				Power:     pcfg,
			})
			if err != nil {
				return fmt.Errorf("%s ensemble: %w", name, err)
			}
			kmax := gc.K
			if kmax < 8 {
				kmax = 8
			}
			model, err := core.Train(train, core.TrainOptions{KMax: kmax, Seed: seed})
			if err != nil {
				return fmt.Errorf("%s train: %w", name, err)
			}
			sensors, err := model.PlaceSensors(gc.M, core.PlaceOptions{K: gc.K})
			if err != nil {
				return fmt.Errorf("%s place: %w", name, err)
			}
			if len(sensors) > gc.M {
				sensors = sensors[:gc.M]
			}
			mon, err := model.NewMonitor(gc.K, sensors)
			if err != nil {
				return fmt.Errorf("%s monitor: %w", name, err)
			}
			base.Estimator = mon
			base.Sensors = sensors
			if faults != nil {
				base.Injector = drift.NewInjector(faults, seed+200_000+int64(si))
				arm += " faulted"
			}
		}

		res, err := governor.Run(base)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stdout,
			"%s [%s %s, ceiling %.2f C]: core peak %.2f C, duty %.3f, perf %.3f, violation %.4g C*s, est err %.3f C, cap hash %016x\n",
			name, gc.Policy, arm, ceiling,
			res.CorePeakC, res.ThrottleDuty, res.PerfRetained, res.ViolationDegSec, res.EstPeakErrC, res.CapHash)
	}
	return nil
}
