package drift

import (
	"math"
	"math/rand"
	"testing"
)

// calib builds a calibration from synthetic training residuals: rho ~
// N(mean, std) clamped to [0,1), per-sensor residuals spread evenly.
func calib(t *testing.T, m int, mean, std float64) Calibration {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	rhos := make([]float64, 400)
	per := make([][]float64, len(rhos))
	for j := range rhos {
		r := mean + std*rng.NormFloat64()
		if r < 0 {
			r = 0
		}
		rhos[j] = r
		row := make([]float64, m)
		for i := range row {
			row[i] = r / math.Sqrt(float64(m)) * (1 + 0.1*rng.NormFloat64())
		}
		per[j] = row
	}
	cal, err := Calibrate(rhos, per)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func TestCalibrateValidation(t *testing.T) {
	if _, err := Calibrate([]float64{0.1}, [][]float64{{0.1}}); err == nil {
		t.Fatal("one sample should fail")
	}
	if _, err := Calibrate([]float64{0.1, 0.2}, [][]float64{{0.1}}); err == nil {
		t.Fatal("row-count mismatch should fail")
	}
	if _, err := Calibrate([]float64{0.1, math.NaN()}, [][]float64{{0.1}, {0.1}}); err == nil {
		t.Fatal("NaN residual should fail")
	}
	if _, err := Calibrate([]float64{0.1, 0.2}, [][]float64{{0.1}, {0.1, 0.2}}); err == nil {
		t.Fatal("ragged per-sensor rows should fail")
	}
	cal, err := Calibrate([]float64{0.1, 0.1, 0.1}, [][]float64{{0.1}, {0.1}, {0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if cal.Std < 1e-9 {
		t.Fatalf("constant residuals: std %v not floored", cal.Std)
	}
	if !cal.Valid() {
		t.Fatal("calibration should be valid")
	}
}

func TestDetectorStaysOKInDistribution(t *testing.T) {
	m := 8
	cal := calib(t, m, 0.1, 0.02)
	d, err := NewDetector(cal, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	energy := make([]float64, m)
	for i := range energy {
		energy[i] = 1
	}
	for step := 0; step < 500; step++ {
		rho := 0.1 + 0.02*rng.NormFloat64()
		d.Observe(rho, energy, 1)
	}
	if s := d.State(); s != StateOK {
		t.Fatalf("in-distribution stream classified %v", s)
	}
	if f := d.FaultySensor(); f != -1 {
		t.Fatalf("faulty sensor %d on healthy stream", f)
	}
}

func TestDetectorEscalatesOnShift(t *testing.T) {
	m := 8
	cal := calib(t, m, 0.1, 0.02)
	d, err := NewDetector(cal, Config{})
	if err != nil {
		t.Fatal(err)
	}
	spread := make([]float64, m)
	for i := range spread {
		spread[i] = 1
	}
	// Moderate sustained shift (z ≈ 5): settles in DRIFTING, not DEGRADED.
	for step := 0; step < 100; step++ {
		d.Observe(0.2, spread, 1)
	}
	if s := d.State(); s != StateDrifting {
		t.Fatalf("moderate shift classified %v: %+v", s, d.Status())
	}
	// Escalation to a strong shift (z ≈ 20) must reach DEGRADED.
	for step := 0; step < 100; step++ {
		d.Observe(0.5, spread, 1)
	}
	if s := d.State(); s != StateDegraded {
		t.Fatalf("strong shift never degraded: %+v", d.Status())
	}
	if f := d.FaultySensor(); f != -1 {
		t.Fatalf("global drift attributed to sensor %d", f)
	}
}

func TestDetectorCUSUMCatchesSmallShift(t *testing.T) {
	// A +1.5σ shift is below the EWMA drift threshold (z=4) but persistent;
	// the CUSUM accumulates it and must raise DRIFTING.
	m := 4
	cal := calib(t, m, 0.1, 0.02)
	d, err := NewDetector(cal, Config{})
	if err != nil {
		t.Fatal(err)
	}
	spread := []float64{1, 1, 1, 1}
	for step := 0; step < 100; step++ {
		d.Observe(0.1+1.5*0.02, spread, 1)
	}
	st := d.Status()
	if st.State != StateDrifting {
		t.Fatalf("persistent small shift classified %v: %+v", st.State, st)
	}
	if st.EWMA >= 4 {
		t.Fatalf("EWMA %v should be below the drift threshold (the CUSUM carried it)", st.EWMA)
	}
}

func TestDetectorAttributesFaultySensor(t *testing.T) {
	m := 8
	cal := calib(t, m, 0.1, 0.02)
	d, err := NewDetector(cal, Config{})
	if err != nil {
		t.Fatal(err)
	}
	energy := make([]float64, m)
	for i := range energy {
		energy[i] = 0.01
	}
	energy[5] = 10 // one sensor dominates the residual
	for step := 0; step < 100; step++ {
		d.Observe(0.6, energy, 1)
	}
	if d.State() == StateOK {
		t.Fatalf("faulty-sensor stream still OK: %+v", d.Status())
	}
	if f := d.FaultySensor(); f != 5 {
		t.Fatalf("attributed sensor %d, want 5", f)
	}
}

func TestDetectorMinCountGates(t *testing.T) {
	m := 4
	cal := calib(t, m, 0.1, 0.02)
	d, err := NewDetector(cal, Config{MinCount: 32})
	if err != nil {
		t.Fatal(err)
	}
	spread := []float64{1, 1, 1, 1}
	for step := 0; step < 31; step++ {
		d.Observe(0.9, spread, 1)
	}
	if s := d.State(); s != StateOK {
		t.Fatalf("state %v before MinCount observations", s)
	}
	d.Observe(0.9, spread, 1)
	if s := d.State(); s == StateOK {
		t.Fatal("still OK after MinCount strong-shift observations")
	}
}

func TestDetectorBatchedObserveMatchesUnbatched(t *testing.T) {
	m := 4
	cal := calib(t, m, 0.1, 0.02)
	one, err := NewDetector(cal, Config{})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewDetector(cal, Config{})
	if err != nil {
		t.Fatal(err)
	}
	spread := []float64{1, 1, 1, 1}
	batchSpread := []float64{16, 16, 16, 16}
	for step := 0; step < 16; step++ {
		one.Observe(0.4, spread, 1)
	}
	batched.Observe(0.4, batchSpread, 16)
	so, sb := one.Status(), batched.Status()
	if math.Abs(so.EWMA-sb.EWMA) > 1e-9 || math.Abs(so.CUSUM-sb.CUSUM) > 1e-9 {
		t.Fatalf("batched observe diverged: %+v vs %+v", so, sb)
	}
	if so.Observations != sb.Observations {
		t.Fatalf("counts %d vs %d", so.Observations, sb.Observations)
	}
}

func TestStateStrings(t *testing.T) {
	if StateOK.String() != "ok" || StateDrifting.String() != "drifting" || StateDegraded.String() != "degraded" {
		t.Fatal("state names must match the wire quality vocabulary")
	}
}
