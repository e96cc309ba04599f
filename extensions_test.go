package eigenmaps_test

import (
	"math"
	"testing"

	eigenmaps "repro"
)

func TestTrackerFacade(t *testing.T) {
	ens, model := fixture(t)
	sensors, err := model.PlaceSensors(8, eigenmaps.PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := model.NewTracker(6, sensors[:8], eigenmaps.TrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Sensors()) != 8 {
		t.Fatal("sensors accessor wrong")
	}
	before := tr.Uncertainty()
	var est []float64
	for j := 0; j < 30; j++ {
		est, err = tr.Step(tr.Sample(ens.Map(j)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(est) != ens.N() {
		t.Fatalf("estimate length %d", len(est))
	}
	if tr.Uncertainty() >= before {
		t.Fatal("uncertainty did not shrink with measurements")
	}
}

func TestTrackerFewerSensorsThanK(t *testing.T) {
	ens, model := fixture(t)
	sensors, err := model.PlaceSensors(8, eigenmaps.PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := model.NewTracker(6, sensors[:2], eigenmaps.TrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(tr.Sample(ens.Map(0))); err != nil {
		t.Fatal(err)
	}
}

func TestSensorBankFacade(t *testing.T) {
	bank := eigenmaps.TypicalSensorModel().Manufacture(4, 1)
	if bank.Count() != 4 {
		t.Fatalf("count %d", bank.Count())
	}
	in := []float64{60, 65, 70, 75}
	out := bank.Read(in)
	if len(out) != 4 {
		t.Fatal("read length")
	}
	var differs bool
	for i := range in {
		if math.Abs(out[i]-in[i]) > 6 {
			t.Fatalf("sensor error %v implausibly large", out[i]-in[i])
		}
		if out[i] != in[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("typical sensors read perfectly — model not applied")
	}
	// Same seed ⇒ same calibration; offsets are frozen.
	again := eigenmaps.TypicalSensorModel().Manufacture(4, 1)
	_ = again
}

func TestAnalyzeT1Facade(t *testing.T) {
	ens, _ := fixture(t)
	g := ens.Grid()
	rep := eigenmaps.AnalyzeT1(g, ens.Map(0), 0)
	if rep.MaxC < rep.MinC || rep.MeanC < rep.MinC || rep.MeanC > rep.MaxC {
		t.Fatalf("inconsistent report %+v", rep)
	}
	if rep.MaxGradC < 0 {
		t.Fatal("negative gradient")
	}
	// Threshold 0 ⇒ every block is hot (T1 has 18).
	if len(rep.HotBlocks) != 18 {
		t.Fatalf("hot blocks %d, want 18", len(rep.HotBlocks))
	}
	// Impossible threshold ⇒ none.
	rep = eigenmaps.AnalyzeT1(g, ens.Map(0), 1e9)
	if len(rep.HotBlocks) != 0 {
		t.Fatal("hot blocks above impossible threshold")
	}
}

func TestThermalAlarmFacade(t *testing.T) {
	a := eigenmaps.NewThermalAlarm(85, 80)
	if a.Update(84) {
		t.Fatal("early trip")
	}
	if !a.Update(86) || !a.Active() {
		t.Fatal("no trip")
	}
	if !a.Update(81) {
		t.Fatal("hysteresis broken")
	}
	if a.Update(79) {
		t.Fatal("no clear")
	}
	if a.Trips() != 1 {
		t.Fatalf("trips %d", a.Trips())
	}
}

func TestTrackerBeatsMonitorWithNoisySensors(t *testing.T) {
	// Integration: with realistic sensors, temporal tracking must beat
	// memoryless least squares over a trace.
	ens, model := fixture(t)
	sensors, err := model.PlaceSensors(8, eigenmaps.PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sensors = sensors[:8]
	const k = 6
	mon, err := model.NewMonitor(k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := model.NewTracker(k, sensors, eigenmaps.TrackerOptions{
		ProcessScale: 0.1, MeasurementVarC2: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	bank := eigenmaps.SensorModel{ReadNoiseC: 1.2}.Manufacture(len(sensors), 3)
	var monSq, trSq float64
	var count int
	for j := 0; j < ens.T(); j++ {
		truth := ens.Map(j)
		readings := bank.Read(mon.Sample(truth))
		me, err := mon.Estimate(readings)
		if err != nil {
			t.Fatal(err)
		}
		te, err := tr.Step(readings)
		if err != nil {
			t.Fatal(err)
		}
		if j < 10 {
			continue // tracker burn-in
		}
		for i := range truth {
			dm := truth[i] - me[i]
			dt := truth[i] - te[i]
			monSq += dm * dm
			trSq += dt * dt
		}
		count += len(truth)
	}
	if trSq/float64(count) >= monSq/float64(count) {
		t.Fatalf("tracker MSE %v not below monitor MSE %v",
			trSq/float64(count), monSq/float64(count))
	}
}
