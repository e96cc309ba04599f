package track

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/basis"
	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/noise"
	"repro/internal/place"
	"repro/internal/recon"
)

var (
	fixOnce sync.Once
	fixDS   *dataset.Dataset
	fixB    *basis.Basis
	fixS    []int
	fixErr  error
)

func fixture(t *testing.T) (*dataset.Dataset, *basis.Basis, []int) {
	t.Helper()
	fixOnce.Do(func() {
		fixDS, fixErr = dataset.Generate(floorplan.UltraSparcT1(), dataset.GenConfig{
			Grid:      floorplan.Grid{W: 14, H: 12},
			Snapshots: 200,
			Seed:      8,
		})
		if fixErr != nil {
			return
		}
		fixB, fixErr = basis.TrainPCA(fixDS, 10, 8)
		if fixErr != nil {
			return
		}
		psi, err := fixB.PsiK(8)
		if err != nil {
			fixErr = err
			return
		}
		fixS, fixErr = (&place.Greedy{}).Allocate(place.Input{Psi: psi, Grid: fixDS.Grid, M: 8})
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDS, fixB, fixS
}

func TestNewKalmanValidates(t *testing.T) {
	_, b, sensors := fixture(t)
	if _, err := NewKalman(b, 0, sensors, Config{}); err == nil {
		t.Fatal("K=0 should fail")
	}
	if _, err := NewKalman(b, 4, nil, Config{}); err == nil {
		t.Fatal("no sensors should fail")
	}
	if _, err := NewKalman(b, 4, []int{-1}, Config{}); err == nil {
		t.Fatal("bad sensor index should fail")
	}
	if _, err := NewKalman(b, 4, sensors, Config{Rho: 1.5}); err == nil {
		t.Fatal("rho > 1 should fail")
	}
	if _, err := NewKalman(b, 4, sensors, Config{MeasurementVar: -1}); err == nil {
		t.Fatal("negative measurement var should fail")
	}
}

func TestKalmanConvergesToTruthOnStaticScene(t *testing.T) {
	ds, b, sensors := fixture(t)
	kf, err := NewKalman(b, 6, sensors, Config{ProcessScale: 1e-6, MeasurementVar: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	truth := ds.Map(50)
	readings := kf.Sample(truth)
	var est []float64
	for i := 0; i < 200; i++ {
		est, err = kf.Step(readings)
		if err != nil {
			t.Fatal(err)
		}
	}
	// With vanishing process noise and repeated identical measurements the
	// filter must converge to the least-squares solution for those sensors.
	ls, err := recon.New(b, 6, sensors)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ls.Reconstruct(readings)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range est {
		if d := math.Abs(est[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > 0.05 {
		t.Fatalf("static-scene estimate %v °C from the least-squares limit", worst)
	}
}

func TestKalmanUncertaintyShrinks(t *testing.T) {
	ds, b, sensors := fixture(t)
	kf, err := NewKalman(b, 6, sensors, Config{ProcessScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	before := kf.CovarianceTrace()
	readings := kf.Sample(ds.Map(10))
	for i := 0; i < 20; i++ {
		if _, err := kf.Step(readings); err != nil {
			t.Fatal(err)
		}
	}
	after := kf.CovarianceTrace()
	if after >= before {
		t.Fatalf("covariance trace rose: %v → %v", before, after)
	}
	if kf.Steps() != 20 {
		t.Fatalf("steps = %d", kf.Steps())
	}
}

func TestKalmanBeatsMemorylessLSUnderNoise(t *testing.T) {
	// On a slowly varying trace with noisy sensors, the tracker's MSE must
	// beat per-snapshot least squares with the same sensors and K.
	ds, b, sensors := fixture(t)
	const k = 6
	kf, err := NewKalman(b, k, sensors, Config{ProcessScale: 0.05, MeasurementVar: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := recon.New(b, k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var kfSq, lsSq float64
	var count int
	// Skip the filter's burn-in when scoring.
	const burnIn = 10
	for j := 0; j < ds.T(); j++ {
		truth := ds.Map(j)
		clean := kf.Sample(truth)
		noisy := make([]float64, len(clean))
		for i := range clean {
			noisy[i] = clean[i] + rng.NormFloat64() // 1 °C sensor noise
		}
		kfEst, err := kf.Step(noisy)
		if err != nil {
			t.Fatal(err)
		}
		lsEst, err := ls.Reconstruct(noisy)
		if err != nil {
			t.Fatal(err)
		}
		if j < burnIn {
			continue
		}
		for i := range truth {
			dk := truth[i] - kfEst[i]
			dl := truth[i] - lsEst[i]
			kfSq += dk * dk
			lsSq += dl * dl
		}
		count += len(truth)
	}
	kfMSE := kfSq / float64(count)
	lsMSE := lsSq / float64(count)
	if kfMSE >= lsMSE {
		t.Fatalf("Kalman MSE %v not below least-squares %v under noise", kfMSE, lsMSE)
	}
}

func TestKalmanWorksWithFewerSensorsThanK(t *testing.T) {
	ds, b, sensors := fixture(t)
	// M=3 < K=6: least squares is impossible, the filter still runs.
	kf, err := NewKalman(b, 6, sensors[:3], Config{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := kf.Step(kf.Sample(ds.Map(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != ds.N() {
		t.Fatalf("estimate length %d", len(est))
	}
}

func TestKalmanResetRestoresPrior(t *testing.T) {
	ds, b, sensors := fixture(t)
	kf, err := NewKalman(b, 5, sensors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prior := kf.CovarianceTrace()
	for i := 0; i < 5; i++ {
		if _, err := kf.Step(kf.Sample(ds.Map(i))); err != nil {
			t.Fatal(err)
		}
	}
	kf.Reset()
	if math.Abs(kf.CovarianceTrace()-prior) > 1e-12 {
		t.Fatal("Reset did not restore the prior covariance")
	}
	if kf.Steps() != 0 {
		t.Fatal("Reset did not clear the step counter")
	}
	for _, a := range kf.Coefficients() {
		if a != 0 {
			t.Fatal("Reset did not clear the state")
		}
	}
}

func TestKalmanTracksChangingScene(t *testing.T) {
	ds, b, sensors := fixture(t)
	kf, err := NewKalman(b, 6, sensors, Config{ProcessScale: 0.2, MeasurementVar: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	// Feed the real evolving trace; the tracking error must stay bounded
	// and comparable to the subspace floor.
	var worst float64
	for j := 0; j < 100; j++ {
		truth := ds.Map(j)
		est, err := kf.Step(kf.Sample(truth))
		if err != nil {
			t.Fatal(err)
		}
		if j < 5 {
			continue
		}
		var sq float64
		for i := range truth {
			d := truth[i] - est[i]
			sq += d * d
		}
		sq /= float64(len(truth))
		if sq > worst {
			worst = sq
		}
	}
	if worst > 5 {
		t.Fatalf("per-map tracking MSE reached %v °C²", worst)
	}
}

func TestKalmanReadingCountChecked(t *testing.T) {
	_, b, sensors := fixture(t)
	kf, err := NewKalman(b, 4, sensors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kf.Step([]float64{1}); err == nil {
		t.Fatal("expected reading-count error")
	}
}

func TestKalmanWithSensorModel(t *testing.T) {
	// End-to-end with the realistic sensor model: calibration error biases
	// the estimate but the filter must remain stable (no divergence).
	ds, b, sensors := fixture(t)
	kf, err := NewKalman(b, 6, sensors, Config{ProcessScale: 0.1, MeasurementVar: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	bank := noise.TypicalSensor().NewSensors(len(sensors), rand.New(rand.NewSource(5)))
	var lastMSE float64
	for j := 0; j < 150; j++ {
		truth := ds.Map(j % ds.T())
		est, err := kf.Step(bank.Read(kf.Sample(truth)))
		if err != nil {
			t.Fatal(err)
		}
		var sq float64
		for i := range truth {
			d := truth[i] - est[i]
			sq += d * d
		}
		lastMSE = sq / float64(len(truth))
		if math.IsNaN(lastMSE) || lastMSE > 100 {
			t.Fatalf("filter diverged at step %d: MSE %v", j, lastMSE)
		}
	}
	if lastMSE > 10 {
		t.Fatalf("steady-state MSE %v with realistic sensors", lastMSE)
	}
}

func TestStepBatchMatchesSequentialSteps(t *testing.T) {
	ds, b, sensors := fixture(t)
	mk := func() *Kalman {
		kf, err := NewKalman(b, 6, sensors, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return kf
	}
	seq, bat := mk(), mk()
	var batch [][]float64
	var want [][]float64
	for j := 0; j < 12; j++ {
		y := seq.Sample(ds.Map(j))
		batch = append(batch, y)
		est, err := seq.Step(y)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, est)
	}
	got, err := bat.StepBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d estimates, want %d", len(got), len(want))
	}
	for j := range want {
		for c := range want[j] {
			if got[j][c] != want[j][c] {
				t.Fatalf("step %d cell %d: batch %v != sequential %v", j, c, got[j][c], want[j][c])
			}
		}
	}
	if bat.Steps() != seq.Steps() {
		t.Fatalf("step counters diverged: %d vs %d", bat.Steps(), seq.Steps())
	}
}

func TestStepRejectsNonFinite(t *testing.T) {
	_, b, sensors := fixture(t)
	kf, err := NewKalman(b, 4, sensors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]float64, len(sensors))
	bad[1] = math.NaN()
	if _, err := kf.Step(bad); err == nil {
		t.Fatal("NaN reading should fail")
	}
	if kf.Steps() != 0 {
		t.Fatalf("failed step must not advance the filter (steps=%d)", kf.Steps())
	}
	good := make([]float64, len(sensors))
	for i := range good {
		good[i] = 45
	}
	if _, err := kf.StepBatch([][]float64{good, bad}); err == nil {
		t.Fatal("NaN in batch should fail")
	}
	if kf.Steps() != 0 {
		t.Fatalf("rejected batch must leave the filter untouched (steps=%d)", kf.Steps())
	}
}

func TestKalmanConcurrentSteps(t *testing.T) {
	// Concurrent Step calls on one tracker must be serialized, not race: the
	// step counter ends exactly at the total and the covariance stays finite.
	ds, b, sensors := fixture(t)
	kf, err := NewKalman(b, 6, sensors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 6, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := kf.Step(kf.Sample(ds.Map((g*per + i) % ds.T()))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := kf.Steps(); got != goroutines*per {
		t.Fatalf("steps = %d, want %d", got, goroutines*per)
	}
	if tr := kf.CovarianceTrace(); math.IsNaN(tr) || tr <= 0 {
		t.Fatalf("covariance trace = %v", tr)
	}
}

// TestStepBatchIntoZeroAlloc pins the serving contract: once a tracker
// exists, stepping a batch into caller-owned maps allocates nothing.
func TestStepBatchIntoZeroAlloc(t *testing.T) {
	ds, b, sensors := fixture(t)
	kf, err := NewKalman(b, 8, sensors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	readings := make([][]float64, 16)
	dst := make([][]float64, len(readings))
	for i := range readings {
		readings[i] = kf.Sample(ds.Map(i))
		dst[i] = make([]float64, b.N())
	}
	if _, _, err := kf.StepBatchInto(dst, readings); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := kf.StepBatchInto(dst, readings); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("StepBatchInto allocates %v times per batch, want 0", allocs)
	}
}

var (
	fleetOnce sync.Once
	fleetDS   *dataset.Dataset
	fleetB    *basis.Basis
	fleetS    []int
	fleetErr  error
)

// fleetFixture is a die of the end-to-end benchmark's fleet-json workload:
// t1 at 16×14 (N 224), T 256, KMax 12, and 12 greedy sensors for K 8.
func fleetFixture(tb testing.TB) (*dataset.Dataset, *basis.Basis, []int) {
	tb.Helper()
	fleetOnce.Do(func() {
		fleetDS, fleetErr = dataset.Generate(floorplan.UltraSparcT1(), dataset.GenConfig{
			Grid:      floorplan.Grid{W: 16, H: 14},
			Snapshots: 256,
			Seed:      1,
		})
		if fleetErr != nil {
			return
		}
		if fleetB, fleetErr = basis.TrainPCA(fleetDS, 12, 1); fleetErr != nil {
			return
		}
		psi, err := fleetB.PsiK(8)
		if err != nil {
			fleetErr = err
			return
		}
		fleetS, fleetErr = (&place.Greedy{}).Allocate(place.Input{Psi: psi, Grid: fleetDS.Grid, M: 12})
	})
	if fleetErr != nil {
		tb.Fatal(fleetErr)
	}
	return fleetDS, fleetB, fleetS
}

// BenchmarkKalmanStepBatch steps one tracker through 128-snapshot batches
// at the fleet shape (K 8, M 12, N 224).
func BenchmarkKalmanStepBatch(b *testing.B) {
	ds, bs, sensors := fleetFixture(b)
	kf, err := NewKalman(bs, 8, sensors, Config{})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 128
	readings := make([][]float64, batch)
	dst := make([][]float64, batch)
	for i := range readings {
		readings[i] = kf.Sample(ds.Map(i))
		dst[i] = make([]float64, bs.N())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := kf.StepBatchInto(dst, readings); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "snapshots/s")
}
