package eigenmaps_test

import (
	"bytes"
	"math"
	"sort"
	"sync"
	"testing"

	eigenmaps "repro"
)

// batchEnv trains a small model once and hands out a shared monitor plus
// in-ensemble reading vectors.
var (
	batchOnce    sync.Once
	batchModel   *eigenmaps.Model
	batchSensors []int
	batchMon     *eigenmaps.Monitor
	batchIn      [][]float64
	batchErr     error
)

func batchSetup(t *testing.T) (*eigenmaps.Monitor, [][]float64) {
	t.Helper()
	batchOnce.Do(func() {
		ens, err := eigenmaps.SimulateT1(eigenmaps.SimOptions{
			Grid: eigenmaps.Grid{W: 16, H: 14}, Snapshots: 150, Seed: 5,
		})
		if err != nil {
			batchErr = err
			return
		}
		batchModel, err = eigenmaps.Train(ens, eigenmaps.TrainOptions{KMax: 12, Seed: 5})
		if err != nil {
			batchErr = err
			return
		}
		batchSensors, err = batchModel.PlaceSensors(10, eigenmaps.PlaceOptions{K: 6})
		if err != nil {
			batchErr = err
			return
		}
		batchMon, err = batchModel.NewMonitor(6, batchSensors)
		if err != nil {
			batchErr = err
			return
		}
		for j := 0; j < 32; j++ {
			batchIn = append(batchIn, batchMon.Sample(ens.Map(j%ens.T())))
		}
	})
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	return batchMon, batchIn
}

func TestEstimateBatchMatchesEstimate(t *testing.T) {
	mon, readings := batchSetup(t)
	got, err := mon.EstimateBatch(readings, eigenmaps.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(readings) {
		t.Fatalf("batch returned %d maps for %d snapshots", len(got), len(readings))
	}
	for i, xS := range readings {
		want, err := mon.Estimate(xS)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if got[i][c] != want[c] {
				t.Fatalf("snapshot %d cell %d: batch %v != sequential %v", i, c, got[i][c], want[c])
			}
		}
	}
}

func TestEstimateBatchRejectsNaN(t *testing.T) {
	mon, readings := batchSetup(t)
	bad := append([]float64(nil), readings[0]...)
	bad[0] = math.NaN()
	_, err := mon.EstimateBatch([][]float64{readings[0], bad}, eigenmaps.BatchOptions{})
	if err == nil {
		t.Fatal("NaN snapshot must fail the batch")
	}
}

func TestEstimateStreamDeliversAll(t *testing.T) {
	mon, readings := batchSetup(t)
	in := make(chan []float64)
	bad := append([]float64(nil), readings[0]...)
	bad[1] = math.Inf(1)
	go func() {
		for _, xS := range readings {
			in <- xS
		}
		in <- bad
		close(in)
	}()
	var indices []int
	var badErrs int
	for res := range mon.EstimateStream(in, eigenmaps.BatchOptions{Workers: 4}) {
		if res.Err != nil {
			badErrs++
			if res.Index != len(readings) {
				t.Fatalf("error at index %d, want %d", res.Index, len(readings))
			}
			continue
		}
		want, err := mon.Estimate(readings[res.Index])
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if res.Map[c] != want[c] {
				t.Fatalf("stream snapshot %d cell %d diverged", res.Index, c)
			}
		}
		indices = append(indices, res.Index)
	}
	if badErrs != 1 {
		t.Fatalf("bad-snapshot errors = %d, want 1 (stream must continue past them)", badErrs)
	}
	sort.Ints(indices)
	if len(indices) != len(readings) {
		t.Fatalf("stream delivered %d maps, want %d", len(indices), len(readings))
	}
	for i, idx := range indices {
		if i != idx {
			t.Fatalf("missing stream index %d", i)
		}
	}
}

func TestTrackerStepBatch(t *testing.T) {
	_, readings := batchSetup(t)
	seq, err := batchModel.NewTracker(6, batchSensors, eigenmaps.TrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bat, err := batchModel.NewTracker(6, batchSensors, eigenmaps.TrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]float64
	for _, xS := range readings[:10] {
		est, err := seq.Step(xS)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, est)
	}
	got, err := bat.StepBatch(readings[:10])
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		for c := range want[j] {
			if got[j][c] != want[j][c] {
				t.Fatalf("step %d cell %d: batch %v != sequential %v", j, c, got[j][c], want[j][c])
			}
		}
	}
	if _, err := bat.StepBatch([][]float64{{math.NaN()}}); err == nil {
		t.Fatal("NaN batch should fail")
	}
}

func TestMonitorRejectsDegenerateInputs(t *testing.T) {
	batchSetup(t)
	if _, err := batchModel.NewMonitor(2, []int{3, 3, 7}); err == nil {
		t.Fatal("duplicate sensors must be rejected")
	}
	if _, err := batchModel.NewMonitor(4, []int{1, 2}); err == nil {
		t.Fatal("M<K must be rejected")
	}
	m2, err := batchModel.NewMonitor(2, []int{3, 9, 27})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Estimate([]float64{40, math.NaN(), 41}); err == nil {
		t.Fatal("NaN reading must be rejected")
	}
}

func TestEstimateBatchWithThreadsOptions(t *testing.T) {
	mon, readings := batchSetup(t)
	batch, err := mon.EstimateBatch(readings, eigenmaps.BatchOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mon.Estimate(readings[7])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if batch[7][i] != want[i] {
			t.Fatalf("cell %d: batch %v != single %v", i, batch[7][i], want[i])
		}
	}
}

// A saved-and-loaded monitor restores the persisted operator section
// and serves bit-identically.
func TestSaveLoadPreservesOperatorArm(t *testing.T) {
	mon, readings := batchSetup(t)
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := eigenmaps.LoadMonitor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mon.Estimate(readings[3])
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Estimate(readings[3])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: loaded %v != original %v", i, got[i], want[i])
		}
	}
}
