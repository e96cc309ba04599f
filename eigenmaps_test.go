package eigenmaps_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	eigenmaps "repro"
)

// Shared tiny fixture: simulate + train once per binary.
var (
	fixOnce  sync.Once
	fixEns   *eigenmaps.Ensemble
	fixModel *eigenmaps.Model
	fixErr   error
)

func fixture(t *testing.T) (*eigenmaps.Ensemble, *eigenmaps.Model) {
	t.Helper()
	fixOnce.Do(func() {
		fixEns, fixErr = eigenmaps.SimulateT1(eigenmaps.SimOptions{
			Grid:      eigenmaps.Grid{W: 16, H: 14},
			Snapshots: 160,
			Seed:      5,
		})
		if fixErr != nil {
			return
		}
		fixModel, fixErr = eigenmaps.Train(fixEns, eigenmaps.TrainOptions{KMax: 12, Seed: 5})
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixEns, fixModel
}

func TestSimulateT1Defaults(t *testing.T) {
	ens, _ := fixture(t)
	if ens.T() != 160 || ens.N() != 224 {
		t.Fatalf("ensemble (%d,%d)", ens.T(), ens.N())
	}
	g := ens.Grid()
	if g.W != 16 || g.H != 14 || g.N() != 224 {
		t.Fatalf("grid %+v", g)
	}
}

func TestSimulateT1UnknownWorkload(t *testing.T) {
	_, err := eigenmaps.SimulateT1(eigenmaps.SimOptions{
		Grid: eigenmaps.Grid{W: 8, H: 8}, Snapshots: 8,
		Workloads: []eigenmaps.Workload{"cryptomining"},
	})
	if err == nil {
		t.Fatal("expected unknown-workload error")
	}
}

func TestTrainRejectsUnknownBasis(t *testing.T) {
	ens, _ := fixture(t)
	if _, err := eigenmaps.Train(ens, eigenmaps.TrainOptions{Basis: "wavelets"}); err == nil {
		t.Fatal("expected unknown-basis error")
	}
}

func TestTrainRejectsDegenerateOptionsFacade(t *testing.T) {
	// One snapshot centers to the zero matrix: no spectrum to train on.
	single, err := eigenmaps.SimulateT1(eigenmaps.SimOptions{
		Grid: eigenmaps.Grid{W: 6, H: 5}, Snapshots: 1, Seed: 5,
		Workloads: []eigenmaps.Workload{eigenmaps.WorkloadWeb},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eigenmaps.Train(single, eigenmaps.TrainOptions{KMax: 4})
	if err == nil {
		t.Fatal("a single-snapshot ensemble should fail")
	}
	if !errors.Is(err, eigenmaps.ErrInvalidOptions) {
		t.Fatalf("error %v does not match ErrInvalidOptions", err)
	}
	var oe *eigenmaps.OptionError
	if !errors.As(err, &oe) || oe.Option != "Ensemble" {
		t.Fatalf("error %v is not the Ensemble OptionError", err)
	}
}

func TestModelAccessors(t *testing.T) {
	_, model := fixture(t)
	if model.KMax() != 12 {
		t.Fatalf("KMax = %d", model.KMax())
	}
	spec := model.Spectrum()
	if len(spec) != 12 || spec[0] <= 0 {
		t.Fatalf("spectrum %v", spec)
	}
	for i := 1; i < len(spec); i++ {
		if spec[i] > spec[i-1]+1e-12 {
			t.Fatal("spectrum not descending")
		}
	}
}

// TestExpectedApproxMSEIsInSampleProjectionMSE pins Proposition 1 on the
// training ensemble: projecting every training map onto the first K
// eigenmaps leaves a per-cell MSE equal to the whole eigenvalue tail over
// N, also for K = KMax, where the tail runs past the trained spectrum. A
// monitor sensing every cell reconstructs by exactly that projection. The
// two ensembles sit on either side of Train's rule at N = 224 and KMax 12:
// the fixture's 160 snapshots train on the covariance side, 96 on the Gram
// side (T ≤ 128).
func TestExpectedApproxMSEIsInSampleProjectionMSE(t *testing.T) {
	fix, _ := fixture(t)
	short, err := eigenmaps.SimulateT1(eigenmaps.SimOptions{Grid: fix.Grid(), Snapshots: 96, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, ens := range []*eigenmaps.Ensemble{fix, short} {
		all := make([]int, ens.N())
		for i := range all {
			all[i] = i
		}
		model, err := eigenmaps.Train(ens, eigenmaps.TrainOptions{KMax: 12, Seed: 5})
		if err != nil {
			t.Fatalf("T=%d: %v", ens.T(), err)
		}
		for _, k := range []int{4, 8, 12} {
			mon, err := model.NewMonitor(k, all)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := mon.Evaluate(ens, eigenmaps.EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got := model.ExpectedApproxMSE(k)
			if got <= 0 || math.Abs(got-ev.MSE) > 1e-9*ev.MSE {
				t.Fatalf("T=%d K=%d: ExpectedApproxMSE %v, in-sample projection MSE %v", ens.T(), k, got, ev.MSE)
			}
		}
	}
}

func TestPlaceSensorsStrategies(t *testing.T) {
	ens, model := fixture(t)
	for _, strat := range []eigenmaps.Allocation{
		eigenmaps.GreedyAllocation, eigenmaps.EnergyAllocation,
		eigenmaps.RandomAllocation, eigenmaps.UniformAllocation, eigenmaps.DOptimalAllocation,
	} {
		sensors, err := model.PlaceSensors(6, eigenmaps.PlaceOptions{Strategy: strat, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(sensors) < 6 {
			t.Fatalf("%s returned %d sensors", strat, len(sensors))
		}
		for _, s := range sensors {
			if s < 0 || s >= ens.N() {
				t.Fatalf("%s sensor %d out of range", strat, s)
			}
		}
	}
	if _, err := model.PlaceSensors(4, eigenmaps.PlaceOptions{Strategy: "psychic"}); err == nil {
		t.Fatal("expected unknown-strategy error")
	}
}

func TestMonitorRoundTrip(t *testing.T) {
	ens, model := fixture(t)
	sensors, err := model.PlaceSensors(6, eigenmaps.PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := model.NewMonitor(6, sensors[:6])
	if err != nil {
		t.Fatal(err)
	}
	if mon.K() != 6 || len(mon.Sensors()) != 6 {
		t.Fatal("monitor accessors wrong")
	}
	kappa, err := mon.ConditionNumber()
	if err != nil {
		t.Fatal(err)
	}
	if kappa < 1 {
		t.Fatalf("kappa = %v", kappa)
	}
	truth := ens.Map(10)
	est, err := mon.Estimate(mon.Sample(truth))
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != ens.N() {
		t.Fatalf("estimate length %d", len(est))
	}
	// The estimate must be a plausible thermal map, close to truth in bulk.
	var mse float64
	for i := range truth {
		d := truth[i] - est[i]
		mse += d * d
	}
	mse /= float64(len(truth))
	if mse > 25 {
		t.Fatalf("single-map MSE %v implausibly large", mse)
	}
}

func TestEvaluateNoiseOrdering(t *testing.T) {
	ens, model := fixture(t)
	sensors, err := model.PlaceSensors(8, eigenmaps.PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := model.NewMonitor(6, sensors[:8])
	if err != nil {
		t.Fatal(err)
	}
	clean, err := mon.Evaluate(ens, eigenmaps.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := mon.Evaluate(ens, eigenmaps.EvalOptions{SNRdB: 15, Noisy: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.MSE <= clean.MSE {
		t.Fatalf("noisy MSE %v not above clean %v", noisy.MSE, clean.MSE)
	}
	inf, err := mon.Evaluate(ens, eigenmaps.EvalOptions{SNRdB: math.Inf(1), Noisy: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inf.MSE-clean.MSE) > 1e-12 {
		t.Fatal("infinite SNR must equal noiseless")
	}
}

func TestBestKFacade(t *testing.T) {
	ens, model := fixture(t)
	sensors, err := model.PlaceSensors(8, eigenmaps.PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k, ev, err := model.BestK(ens, sensors[:8], eigenmaps.EvalOptions{SNRdB: 20, Noisy: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if k < 1 || k > 8 {
		t.Fatalf("BestK = %d", k)
	}
	if ev.MSE <= 0 {
		t.Fatal("evaluation empty")
	}
}

func TestMaskFacade(t *testing.T) {
	ens, model := fixture(t)
	mask, err := eigenmaps.T1SensorMask(ens.Grid(), "cache")
	if err != nil {
		t.Fatal(err)
	}
	if len(mask) != ens.N() {
		t.Fatalf("mask length %d", len(mask))
	}
	sensors, err := model.PlaceSensors(6, eigenmaps.PlaceOptions{Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sensors {
		if !mask[s] {
			t.Fatalf("sensor %d on forbidden cell", s)
		}
	}
	if _, err := eigenmaps.T1SensorMask(ens.Grid(), "bathtub"); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestEnsembleSaveLoadFacade(t *testing.T) {
	ens, _ := fixture(t)
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := eigenmaps.LoadEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.T() != ens.T() || got.N() != ens.N() {
		t.Fatal("round trip changed shape")
	}
	for i, v := range got.Map(3) {
		if v != ens.Map(3)[i] {
			t.Fatal("round trip changed data")
		}
	}
}

func TestTrainOnSplitGeneralizes(t *testing.T) {
	train, _ := fixture(t)
	eval, err := eigenmaps.SimulateT1(eigenmaps.SimOptions{
		Grid: train.Grid(), Snapshots: 40, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := eigenmaps.Train(train, eigenmaps.TrainOptions{KMax: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sensors, err := model.PlaceSensors(8, eigenmaps.PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := model.NewMonitor(8, sensors[:8])
	if err != nil {
		t.Fatal(err)
	}
	ev, err := mon.Evaluate(eval, eigenmaps.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Held-out maps from the same workload family must reconstruct well.
	if ev.MSE > 5 {
		t.Fatalf("held-out MSE %v — model does not generalize", ev.MSE)
	}
}

func TestDCTBaselineFacade(t *testing.T) {
	ens, _ := fixture(t)
	for _, fam := range []eigenmaps.BasisFamily{eigenmaps.DCTBasis, eigenmaps.DCTZigZagBasis} {
		model, err := eigenmaps.Train(ens, eigenmaps.TrainOptions{KMax: 10, Basis: fam})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		sensors, err := model.PlaceSensors(10, eigenmaps.PlaceOptions{Strategy: eigenmaps.EnergyAllocation})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if len(sensors) != 10 {
			t.Fatalf("%s: %d sensors", fam, len(sensors))
		}
	}
}

func TestRenderFacade(t *testing.T) {
	ens, _ := fixture(t)
	g := ens.Grid()
	s := eigenmaps.RenderASCII(g, ens.Map(0), []int{0, 5})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != g.H || len(lines[0]) != g.W {
		t.Fatalf("ASCII render %dx%d, want %dx%d", len(lines), len(lines[0]), g.H, g.W)
	}
	if !strings.Contains(s, "S") {
		t.Fatal("sensor marker missing")
	}
}

func TestWorkloadSpecFacade(t *testing.T) {
	names := eigenmaps.WorkloadNames()
	if len(names) < 6 {
		t.Fatalf("workload catalog has only %d entries: %v", len(names), names)
	}
	for _, want := range []string{"web", "compute", "mixed", "idle", "bursty"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("catalog %v missing %q", names, want)
		}
	}
	ws, err := eigenmaps.NamedWorkload("bursty")
	if err != nil {
		t.Fatal(err)
	}
	if ws.Name() != "bursty" {
		t.Fatalf("Name = %q", ws.Name())
	}
	if _, err := eigenmaps.NamedWorkload("cryptomining"); err == nil {
		t.Fatal("unknown name accepted")
	}

	// JSON round trip through the public type.
	data, err := ws.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := eigenmaps.ParseWorkloadSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "bursty" {
		t.Fatalf("round-tripped name %q", back.Name())
	}
	if _, err := eigenmaps.ParseWorkloadSpec([]byte(`{"phases":[]}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := eigenmaps.ParseWorkloadSpec([]byte(`{"phases":[{"rates":{}}],"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestSimulateT1SpecsMatchWorkloads(t *testing.T) {
	// The same presets spelled as Workload names or as WorkloadSpecs must
	// produce bit-identical ensembles.
	opt := eigenmaps.SimOptions{Grid: eigenmaps.Grid{W: 10, H: 8}, Snapshots: 24, Seed: 9}
	byName := opt
	byName.Workloads = []eigenmaps.Workload{"web", "idle"}
	a, err := eigenmaps.SimulateT1(byName)
	if err != nil {
		t.Fatal(err)
	}
	bySpec := opt
	for _, n := range []string{"web", "idle"} {
		ws, err := eigenmaps.NamedWorkload(n)
		if err != nil {
			t.Fatal(err)
		}
		bySpec.Specs = append(bySpec.Specs, ws)
	}
	b, err := eigenmaps.SimulateT1(bySpec)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < a.T(); j++ {
		am, bm := a.Map(j), b.Map(j)
		for i := range am {
			if am[i] != bm[i] {
				t.Fatalf("map %d cell %d differs: %v vs %v", j, i, am[i], bm[i])
			}
		}
	}
}

func TestSimulateT1RejectsNilSpec(t *testing.T) {
	_, err := eigenmaps.SimulateT1(eigenmaps.SimOptions{
		Grid: eigenmaps.Grid{W: 8, H: 8}, Snapshots: 8,
		Specs: []*eigenmaps.WorkloadSpec{nil},
	})
	if err == nil {
		t.Fatal("nil spec accepted")
	}
}
