package recon

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/basis"
	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/place"
)

var testSet = func() *dataset.Dataset {
	ds, err := dataset.Generate(floorplan.UltraSparcT1(), dataset.GenConfig{
		Grid:      floorplan.Grid{W: 12, H: 10},
		Snapshots: 100,
		Seed:      7,
	})
	if err != nil {
		panic(err)
	}
	return ds
}()

var testBasis = func() *basis.Basis {
	b, err := basis.TrainPCA(testSet, 10, 3)
	if err != nil {
		panic(err)
	}
	return b
}()

func greedySensors(t *testing.T, k, m int) []int {
	t.Helper()
	psi, err := testBasis.PsiK(k)
	if err != nil {
		t.Fatal(err)
	}
	s, err := (&place.Greedy{}).Allocate(place.Input{Psi: psi, Grid: testSet.Grid, M: m})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidates(t *testing.T) {
	if _, err := New(testBasis, 5, []int{1, 2, 3}); !errors.Is(err, ErrTooFewSensors) {
		t.Fatalf("M<K err = %v", err)
	}
	if _, err := New(testBasis, 0, []int{1}); err == nil {
		t.Fatal("K=0 should fail")
	}
	if _, err := New(testBasis, 2, []int{1, 99999}); err == nil {
		t.Fatal("out-of-range sensor should fail")
	}
	// Duplicate sensors are rejected outright (before any rank check): a
	// doubled row silently degrades conditioning below what M suggests.
	if _, err := New(testBasis, 2, []int{5, 5}); !errors.Is(err, ErrDuplicateSensor) {
		t.Fatalf("duplicate-sensor err = %v", err)
	}
	if _, err := New(testBasis, 2, []int{1, 5, 9, 5}); !errors.Is(err, ErrDuplicateSensor) {
		t.Fatalf("duplicate-sensor (M>K) err = %v", err)
	}
}

func TestExactRecoveryInSubspace(t *testing.T) {
	// A map synthesized inside the subspace is recovered exactly from M=K
	// well-placed sensors (Theorem 1, noiseless).
	k := 4
	sensors := greedySensors(t, k, k)
	r, err := New(testBasis, k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	alpha := []float64{5, -3, 2, 1}
	x := testBasis.Synthesize(alpha)
	rec, err := r.Reconstruct(r.Sample(x))
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(rec[i]-x[i]) > 1e-8 {
			t.Fatalf("cell %d: %v vs %v", i, rec[i], x[i])
		}
	}
}

func TestAllSensorsEqualsProjection(t *testing.T) {
	// Sensing every cell reduces least squares to orthogonal projection.
	k := 5
	all := make([]int, testBasis.N())
	for i := range all {
		all[i] = i
	}
	r, err := New(testBasis, k, all)
	if err != nil {
		t.Fatal(err)
	}
	x := testSet.Map(11)
	rec, err := r.Reconstruct(x)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := testBasis.Approximate(x, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec {
		if math.Abs(rec[i]-proj[i]) > 1e-9 {
			t.Fatalf("cell %d: reconstruction %v != projection %v", i, rec[i], proj[i])
		}
	}
}

func TestCoefficientsMatchTheorem1(t *testing.T) {
	// α̂ = (Ψ̃*Ψ̃)⁻¹Ψ̃* x_S — compare the QR path against the normal equations.
	k := 3
	sensors := greedySensors(t, k, 6)
	r, err := New(testBasis, k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	x := testSet.Map(20)
	xS := r.Sample(x)
	got, err := r.Coefficients(xS)
	if err != nil {
		t.Fatal(err)
	}
	psiT := r.psiTilde
	centered := make([]float64, len(sensors))
	for i, s := range sensors {
		centered[i] = x[s] - testBasis.Mean[s]
	}
	want, err := mat.SolveSPD(mat.Gram(psiT), mat.MulVecT(psiT, centered))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("α[%d]: QR %v vs normal equations %v", i, got[i], want[i])
		}
	}
}

func TestReconstructionErrorDecreasesWithM(t *testing.T) {
	k := 4
	var prev float64 = math.Inf(1)
	for _, m := range []int{4, 8, 16} {
		r, err := New(testBasis, k, greedySensors(t, k, m))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Evaluate(r, testSet, EvalConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Not strictly monotone in theory, but with greedy placement more
		// sensors should never hurt by much; allow 10% slack.
		if res.MSE > prev*1.1 {
			t.Fatalf("M=%d MSE %v much worse than smaller M %v", m, res.MSE, prev)
		}
		prev = res.MSE
	}
}

func TestNoiseDegradesGracefully(t *testing.T) {
	k := 4
	m := 16
	r, err := New(testBasis, k, greedySensors(t, k, m))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Evaluate(r, testSet, EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	prevMSE := clean.MSE
	for _, snr := range []float64{50, 30, 15} {
		res, err := Evaluate(r, testSet, EvalConfig{SNRdB: snr, NoisePresent: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.MSE < prevMSE*0.5 {
			t.Fatalf("SNR %v dB: MSE %v implausibly better than cleaner run %v", snr, res.MSE, prevMSE)
		}
		prevMSE = res.MSE
	}
	// At 50 dB the noisy error must be close to noiseless.
	res50, err := Evaluate(r, testSet, EvalConfig{SNRdB: 50, NoisePresent: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res50.MSE > clean.MSE*3+1e-9 {
		t.Fatalf("50 dB MSE %v too far above noiseless %v", res50.MSE, clean.MSE)
	}
}

func TestCondReportsSensibleValues(t *testing.T) {
	k := 4
	r, err := New(testBasis, k, greedySensors(t, k, 8))
	if err != nil {
		t.Fatal(err)
	}
	cond, err := r.Cond()
	if err != nil {
		t.Fatal(err)
	}
	if cond < 1 || math.IsInf(cond, 1) {
		t.Fatalf("κ = %v", cond)
	}
}

func TestEvaluateApproximationMatchesDirect(t *testing.T) {
	k := 6
	res, err := EvaluateApproximation(testBasis, testSet, k)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute directly for one map to cross-check plumbing.
	x := testSet.Map(0)
	ap, err := testBasis.Approximate(x, k)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range x {
		d := math.Abs(x[i] - ap[i])
		if d > worst {
			worst = d
		}
	}
	if res.MaxAbs < worst-1e-12 {
		t.Fatalf("ensemble MaxAbs %v below single-map max %v", res.MaxAbs, worst)
	}
	if res.MSE <= 0 {
		t.Fatal("approximation MSE should be positive for K < N")
	}
}

func TestReconstructChecksReadingCount(t *testing.T) {
	k := 3
	r, err := New(testBasis, k, greedySensors(t, k, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reconstruct([]float64{1, 2}); err == nil {
		t.Fatal("expected reading-count error")
	}
}

func TestSensorsAccessors(t *testing.T) {
	k := 3
	sensors := greedySensors(t, k, 5)
	r, err := New(testBasis, k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	if r.K() != 3 || r.M() != 5 {
		t.Fatalf("K=%d M=%d", r.K(), r.M())
	}
	got := r.Sensors()
	got[0] = -1 // mutation must not leak
	if r.Sensors()[0] == -1 {
		t.Fatal("Sensors leaked internal slice")
	}
}

func TestMeanHandling(t *testing.T) {
	// Reconstructing the mean map itself (zero coefficients) must return
	// the mean exactly.
	k := 4
	r, err := New(testBasis, k, greedySensors(t, k, 8))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Reconstruct(r.Sample(testBasis.Mean))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec {
		if math.Abs(rec[i]-testBasis.Mean[i]) > 1e-8 {
			t.Fatalf("mean reconstruction off at %d: %v vs %v", i, rec[i], testBasis.Mean[i])
		}
	}
}

func TestReconstructorConcurrentUse(t *testing.T) {
	// The doc promises safety for concurrent use after construction;
	// exercise it under the race detector.
	k := 4
	r, err := New(testBasis, k, greedySensors(t, k, 8))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				x := testSet.Map((w*20 + j) % testSet.T())
				if _, err := r.Reconstruct(r.Sample(x)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Readings are accepted up to ±basis.MaxAbsReading and rejected past it
// with ErrBadReading, as NaN and ±Inf are.
func TestReadingBound(t *testing.T) {
	r, readings, _ := batchFixture(t)
	dst := make([]float64, testBasis.N())
	for _, v := range []float64{basis.MaxAbsReading, -basis.MaxAbsReading} {
		x := append([]float64(nil), readings[0]...)
		x[0] = v
		if err := r.ReconstructInto(dst, x); err != nil {
			t.Fatalf("reading %g rejected: %v", v, err)
		}
	}
	for _, v := range []float64{math.Nextafter(basis.MaxAbsReading, math.Inf(1)), -1.7e308, math.Inf(-1), math.NaN()} {
		x := append([]float64(nil), readings[0]...)
		x[len(x)-1] = v
		if err := r.ReconstructInto(dst, x); !errors.Is(err, ErrBadReading) {
			t.Fatalf("reading %g: error %v, want ErrBadReading", v, err)
		}
		if _, err := r.ReconstructBatch([][]float64{readings[0], x}, 1); !errors.Is(err, ErrBadReading) {
			t.Fatalf("batch with reading %g: error %v, want ErrBadReading", v, err)
		}
	}
}
