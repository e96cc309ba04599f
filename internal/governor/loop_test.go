package governor

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/floorplan"
	"repro/internal/workload"
)

// testLoop is a small T1-class closed-loop configuration shared across the
// loop tests: 16×16 grid, web workload, enough steps for caps to engage.
func testLoop(t *testing.T, policy Policy, ceiling float64) LoopConfig {
	t.Helper()
	return LoopConfig{
		Plan:     floorplan.UltraSparcT1(),
		Grid:     floorplan.Grid{W: 16, H: 16},
		Spec:     workload.Preset("compute"),
		Steps:    80,
		Seed:     42,
		Policy:   policy,
		CeilingC: ceiling,
	}
}

// uncappedPeak runs the loop with a trip point no temperature reaches, so
// the governor never acts — the baseline peak the ceilings below are chosen
// against.
func uncappedPeak(t *testing.T) float64 {
	t.Helper()
	cfg := testLoop(t, &Threshold{TripC: math.Inf(1)}, 1000)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThrottleDuty != 0 || res.PerfRetained != 1 {
		t.Fatalf("uncapped run throttled: duty=%v perf=%v", res.ThrottleDuty, res.PerfRetained)
	}
	return res.PeakC
}

func TestLoopDeterministic(t *testing.T) {
	base := uncappedPeak(t)
	run := func(seed int64) *Result {
		cfg := testLoop(t, &Hysteresis{SetC: base - 2, ClearC: base - 5}, base-1)
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if a.CapHash != b.CapHash {
		t.Errorf("same seed, different cap schedules: %#x vs %#x", a.CapHash, b.CapHash)
	}
	if a.Metrics != b.Metrics {
		t.Errorf("same seed, different metrics:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if c := run(43); c.CapHash == a.CapHash && c.Metrics == a.Metrics {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestLoopThrottleEngages(t *testing.T) {
	base := uncappedPeak(t)
	ceiling := base - 1.5
	unres, err := Run(testLoop(t, &Threshold{TripC: math.Inf(1)}, ceiling))
	if err != nil {
		t.Fatal(err)
	}
	if unres.ViolationSteps == 0 {
		t.Fatalf("baseline never violates a ceiling %.1f °C below its own peak", base-ceiling)
	}
	for _, name := range policyNames {
		policy, err := NewPolicy(name, Params{CeilingC: ceiling})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(testLoop(t, policy, ceiling))
		if err != nil {
			t.Fatal(err)
		}
		if res.ThrottleDuty == 0 {
			t.Errorf("%s: governor never engaged", name)
		}
		if res.PerfRetained >= 1 || res.PerfRetained <= 0 {
			t.Errorf("%s: perf retained %v, want in (0,1)", name, res.PerfRetained)
		}
		if res.ViolationDegSec >= unres.ViolationDegSec {
			t.Errorf("%s: governed violation %.4f °C·s not below ungoverned %.4f",
				name, res.ViolationDegSec, unres.ViolationDegSec)
		}
		if res.PeakC > unres.PeakC+1e-9 {
			t.Errorf("%s: governed peak %.2f above ungoverned %.2f", name, res.PeakC, unres.PeakC)
		}
	}
}

// trainTestMonitor builds a small estimator over the same grid the loop
// runs on, the way every serving path does: generate, train, place, fold.
func trainTestMonitor(t *testing.T, m, k int) *core.Monitor {
	t.Helper()
	fp := floorplan.UltraSparcT1()
	ds, err := dataset.Generate(fp, dataset.GenConfig{
		Grid:      floorplan.Grid{W: 16, H: 16},
		Snapshots: 96,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := core.Train(ds, core.TrainOptions{KMax: 2 * k, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sensors, err := mdl.PlaceSensors(m, core.PlaceOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := mdl.NewMonitor(k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// TestOracleArmSanity pins the ablation ordering: a governor acting on the
// ground-truth map cannot do worse (hotter) than one acting on a
// reconstruction of it, up to a small tolerance for benign estimate noise.
func TestOracleArmSanity(t *testing.T) {
	base := uncappedPeak(t)
	ceiling := base - 1.5
	mon := trainTestMonitor(t, 12, 8)

	oracle, err := Run(testLoop(t, &Hysteresis{SetC: ceiling - 0.5, ClearC: ceiling - 3}, ceiling))
	if err != nil {
		t.Fatal(err)
	}
	estCfg := testLoop(t, &Hysteresis{SetC: ceiling - 0.5, ClearC: ceiling - 3}, ceiling)
	estCfg.Estimator = mon
	estCfg.Sensors = mon.Sensors()
	est, err := Run(estCfg)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 0.75 // °C of benign estimate noise
	if oracle.PeakC > est.PeakC+tol {
		t.Errorf("oracle peak %.2f °C above estimated-arm peak %.2f + %.2f tolerance",
			oracle.PeakC, est.PeakC, tol)
	}
	if est.EstPeakErrC <= 0 {
		t.Errorf("estimated arm reports zero estimate error (%.4f)", est.EstPeakErrC)
	}
	if oracle.EstPeakErrC != 0 {
		t.Errorf("oracle arm reports estimate error %.4f, want 0", oracle.EstPeakErrC)
	}
}

// TestLoopFaultedArm checks that sensor faults flow through the injector
// into the governor's view without breaking the loop, and that the faulted
// run stays deterministic.
func TestLoopFaultedArm(t *testing.T) {
	base := uncappedPeak(t)
	ceiling := base - 1.5
	mon := trainTestMonitor(t, 12, 8)
	faults, err := drift.ParseFaults("stuck:0:30,offset:3:+4")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		cfg := testLoop(t, &Hysteresis{SetC: ceiling - 0.5, ClearC: ceiling - 3}, ceiling)
		cfg.Estimator = mon
		cfg.Sensors = mon.Sensors()
		cfg.Injector = drift.NewInjector(faults, 1)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.CapHash != b.CapHash {
		t.Errorf("faulted arm not deterministic: %#x vs %#x", a.CapHash, b.CapHash)
	}
	if a.EstPeakErrC <= 0 {
		t.Errorf("faulted arm reports zero estimate error")
	}
}

func TestRunValidation(t *testing.T) {
	good := testLoop(t, &Threshold{TripC: 80}, 80)
	bad := []func(*LoopConfig){
		func(c *LoopConfig) { c.Plan = nil },
		func(c *LoopConfig) { c.Spec = nil },
		func(c *LoopConfig) { c.Steps = 0 },
		func(c *LoopConfig) { c.CeilingC = 0 },
		func(c *LoopConfig) { c.Grid = floorplan.Grid{} },
		func(c *LoopConfig) { c.Grid = floorplan.Grid{W: -3, H: -5} },
		func(c *LoopConfig) { c.Policy = nil },
		func(c *LoopConfig) { c.Estimator = fakeEstimator{}; c.Sensors = nil },
		func(c *LoopConfig) { c.Estimator = fakeEstimator{}; c.Sensors = []int{1 << 20} },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// The unmutated config must of course run.
	if _, err := Run(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

type fakeEstimator struct{}

func (fakeEstimator) EstimateInto(dst, readings []float64) error {
	for i := range dst {
		dst[i] = 0
	}
	return nil
}
