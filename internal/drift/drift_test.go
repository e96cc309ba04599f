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
	d, err := NewDetector(cal)
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
	d, err := NewDetector(cal)
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
	d, err := NewDetector(cal)
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
	d, err := NewDetector(cal)
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
	d, err := NewDetector(cal)
	if err != nil {
		t.Fatal(err)
	}
	spread := []float64{1, 1, 1, 1}
	for step := 0; step < minCount-1; step++ {
		d.Observe(0.9, spread, 1)
	}
	if s := d.State(); s != StateOK {
		t.Fatalf("state %v before minCount observations", s)
	}
	d.Observe(0.9, spread, 1)
	if s := d.State(); s == StateOK {
		t.Fatal("still OK after minCount strong-shift observations")
	}
}

func TestDetectorBatchedObserveMatchesUnbatched(t *testing.T) {
	m := 4
	cal := calib(t, m, 0.1, 0.02)
	one, err := NewDetector(cal)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewDetector(cal)
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

// TestDetectorBitsPinned replays a fixed stream of (ρ, energy, count)
// through a detector and pins, after every observation, the EWMA, the
// CUSUM and the smoothed sensor shares by their bits, the verdict and the
// faulty sensor, as recorded from the detector while its tuning was a
// config with these values as defaults. The stream is gated below
// minCount while the EWMA is already past driftZ, degrades, blames sensor
// 2, drifts on the CUSUM alone, and skips a NaN or infinite ρ, a
// wrong-length energy vector and an empty batch.
func TestDetectorBitsPinned(t *testing.T) {
	cal := Calibration{Mean: 0.1, Std: 0.02, SensorMean: []float64{0.05, 0.05, 0.05, 0.05}, SensorStd: []float64{0.01, 0.01, 0.01, 0.01}}
	d, err := NewDetector(cal)
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		ewma, cusum uint64
		shares      [4]uint64
		count       int64
		state       State
		faulty      int
	}
	stream := []struct {
		rho    float64
		energy []float64
		count  int
		want   pin
	}{
		{0.11, []float64{1, 1, 1, 1}, 1, pin{0x3fa9999999999994, 0x0, [4]uint64{0x3f99999999999998, 0x3f99999999999998, 0x3f99999999999998, 0x3f99999999999998}, 1, StateOK, -1}},
		{0.12, []float64{1, 2, 1, 1}, 4, pin{0x3fd81bef49cf56e5, 0x3ffffffffffffff6, [4]uint64{0x3fb5ce8533b10773, 0x3fc3b50b0f27bb2e, 0x3fb5ce8533b10773, 0x3fb5ce8533b10773}, 5, StateOK, -1}},
		{0.5, []float64{0.5, 0.5, 3, 0.25}, 3, pin{0x4016c749ed33f579, 0x404e400000000000, [4]uint64{0x3fb80f1964e28f62, 0x3fc2728eb3fe3a9e, 0x3fd03793c0393e0c, 0x3fb3fa60d548b81a}, 8, StateOK, -1}},
		{0.3, []float64{0, 0, 0, 0}, 8, pin{0x40204b18e16e06d6, 0x4061100000000000, [4]uint64{0x3fb80f1964e28f62, 0x3fc2728eb3fe3a9e, 0x3fd03793c0393e0c, 0x3fb3fa60d548b81a}, 16, StateDegraded, -1}},
		{math.NaN(), []float64{1, 1, 1, 1}, 5, pin{0x40204b18e16e06d6, 0x4061100000000000, [4]uint64{0x3fb80f1964e28f62, 0x3fc2728eb3fe3a9e, 0x3fd03793c0393e0c, 0x3fb3fa60d548b81a}, 16, StateDegraded, -1}},
		{0.4, []float64{1, 1, 1}, 2, pin{0x40204b18e16e06d6, 0x4061100000000000, [4]uint64{0x3fb80f1964e28f62, 0x3fc2728eb3fe3a9e, 0x3fd03793c0393e0c, 0x3fb3fa60d548b81a}, 16, StateDegraded, -1}},
		{0.9, []float64{0.1, 0.1, 9, 0.1}, 16, pin{0x40410c7b5a402d48, 0x4088040000000000, [4]uint64{0x3f9acd9b2f046646, 0x3fa2289d1ffe3ca7, 0x3feabb5cf8491499, 0x3f97c74026872328}, 32, StateDegraded, 2}},
		{0.1, []float64{1, 1, 1, 1}, 0, pin{0x40410c7b5a402d48, 0x4088040000000000, [4]uint64{0x3f9acd9b2f046646, 0x3fa2289d1ffe3ca7, 0x3feabb5cf8491499, 0x3f97c74026872328}, 32, StateDegraded, 2}},
		{0.05, []float64{1, 1, 1, 1}, 32, pin{0xbff3e4ca61b54238, 0x4085040000000000, [4]uint64{0x3fcf0429d1935b0f, 0x3fcf0e9e071efe04, 0x3fd14950b222d77a, 0x3fcf00d6f91e8a10}, 64, StateDrifting, -1}},
		{0.13, []float64{2, 1, 1, 1}, 7, pin{0x3fc80bd2c3b6a9e8, 0x40853c0000000000, [4]uint64{0x3fd4c5e9441414d4, 0x3fcc35c9fea80d79, 0x3fcde443359def74, 0x3fcc2f3303f2e9cc}, 71, StateDrifting, -1}},
		{0.2, []float64{1, 1, 5, 1}, 128, pin{0x4013fffe3f170a8b, 0x40939e0000000000, [4]uint64{0x3fc0000253c81780, 0x3fc000011cc2dd86, 0x3fe3fffedbd8af12, 0x3fc000011c292e37}, 199, StateDrifting, 2}},
		{0.17, []float64{1, 1.5, 1, 1}, 3, pin{0x40125fbd2f875335, 0x4093c20000000000, [4]uint64{0x3fc35f5a37379cd9, 0x3fc73a07a337b310, 0x3fe081d133aaca7e, 0x3fc35f59540bb3cf}, 202, StateDrifting, -1}},
		{0.13, []float64{3, 1, 1, 1}, 100, pin{0x3ff8005628af95f6, 0x4095520000000000, [4]uint64{0x3fdfffd928662185, 0x3fc55558a10edabe, 0x3fc555a322a0fe1f, 0x3fc55551eb83df24}, 302, StateDrifting, -1}},
		{math.Inf(1), []float64{1, 1, 1, 1}, 1, pin{0x3ff8005628af95f6, 0x4095520000000000, [4]uint64{0x3fdfffd928662185, 0x3fc55558a10edabe, 0x3fc555a322a0fe1f, 0x3fc55551eb83df24}, 302, StateDrifting, -1}},
		{0.08, []float64{1, 1, 1, 1}, 64, pin{0xbfefe7da5833ea6d, 0x4093d20000000000, [4]uint64{0x3fd004d43ea23744, 0x3fcffcc7cf6c5714, 0x3fcffcc7e5e94aae, 0x3fcffcc7cd65efb5}, 366, StateDrifting, -1}},
	}
	for i, s := range stream {
		d.Observe(s.rho, s.energy, s.count)
		st := d.Status()
		got := pin{ewma: math.Float64bits(st.EWMA), cusum: math.Float64bits(st.CUSUM), count: st.Observations, state: st.State, faulty: st.FaultySensor}
		for j, v := range d.shares {
			got.shares[j] = math.Float64bits(v)
		}
		if got != s.want {
			t.Fatalf("observation %d: %#v, want %#v", i, got, s.want)
		}
	}
}

func TestStateStrings(t *testing.T) {
	if StateOK.String() != "ok" || StateDrifting.String() != "drifting" || StateDegraded.String() != "degraded" {
		t.Fatal("state names must match the wire quality vocabulary")
	}
}
