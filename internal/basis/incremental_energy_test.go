package basis

import (
	"math"
	"testing"

	"repro/internal/floorplan"
)

// batchEnergy computes the reference per-cell mean squared centered
// temperature directly from the ensemble.
func batchEnergy(t *testing.T) []float64 {
	t.Helper()
	mean := trainingSet.Mean()
	energy := make([]float64, trainingSet.N())
	for j := 0; j < trainingSet.T(); j++ {
		x := trainingSet.Map(j)
		for i := range energy {
			d := x[i] - mean[i]
			energy[i] += d * d
		}
	}
	for i := range energy {
		energy[i] /= float64(trainingSet.T())
	}
	return energy
}

func TestIncrementalEnergyMatchesBatch(t *testing.T) {
	inc, err := NewIncremental(trainingSet.Grid, 6, 16)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Energy() != nil {
		t.Fatal("energy before any Add should be nil")
	}
	for j := 0; j < trainingSet.T(); j++ {
		if err := inc.Add(trainingSet.Map(j)); err != nil {
			t.Fatal(err)
		}
	}
	want := batchEnergy(t)
	got := inc.Energy()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+want[i]) {
			t.Fatalf("energy off at cell %d: streamed %v vs batch %v", i, got[i], want[i])
		}
	}
}

func TestNewIncrementalFromValidation(t *testing.T) {
	if _, err := NewIncrementalFrom(nil, nil, 10, 0); err == nil {
		t.Fatal("nil basis should fail")
	}
	b, err := TrainPCA(trainingSet, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIncrementalFrom(b, nil, 0, 0); err == nil {
		t.Fatal("count 0 should fail")
	}
	if _, err := NewIncrementalFrom(b, make([]float64, 3), 10, 0); err == nil {
		t.Fatal("wrong energy length should fail")
	}
}

func TestNewIncrementalFromRoundTrips(t *testing.T) {
	// Seeding from a trained basis and snapshotting immediately must hand the
	// same subspace, mean, importance and energy back.
	kmax := 5
	b, err := TrainPCA(trainingSet, kmax, 1)
	if err != nil {
		t.Fatal(err)
	}
	energy := batchEnergy(t)
	inc, err := NewIncrementalFrom(b, energy, trainingSet.T(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Count() != trainingSet.T() {
		t.Fatalf("seeded count %d, want %d", inc.Count(), trainingSet.T())
	}
	snap, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.KMax() != kmax {
		t.Fatalf("snapshot KMax %d, want %d", snap.KMax(), kmax)
	}
	for i := range b.Mean {
		if snap.Mean[i] != b.Mean[i] {
			t.Fatalf("seeded mean mutated at %d", i)
		}
	}
	for j := 0; j < kmax; j++ {
		rel := math.Abs(snap.Importance[j]-b.Importance[j]) / (b.Importance[0] + 1)
		if rel > 1e-12 {
			t.Fatalf("importance %d: %v vs seed %v", j, snap.Importance[j], b.Importance[j])
		}
	}
	got := inc.Energy()
	for i := range energy {
		if math.Abs(got[i]-energy[i]) > 1e-8*(1+energy[i]) {
			t.Fatalf("seeded energy off at %d: %v vs %v", i, got[i], energy[i])
		}
	}
}

func TestNewIncrementalFromAdapts(t *testing.T) {
	// A seeded trainer that keeps absorbing a shifted regime must explain the
	// new regime better than the frozen seed basis does.
	k := 3
	b, err := TrainPCA(trainingSet, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncrementalFrom(b, batchEnergy(t), trainingSet.T(), 16)
	if err != nil {
		t.Fatal(err)
	}
	mean := trainingSet.Mean()
	shifted := make([][]float64, 0, trainingSet.T())
	for j := 0; j < trainingSet.T(); j++ {
		x := trainingSet.Map(j)
		s := make([]float64, len(x))
		for i := range x {
			// Reverse the deviation field left-to-right: a spatially different
			// regime with the same mean.
			row, col := i/trainingSet.Grid.W, i%trainingSet.Grid.W
			src := row*trainingSet.Grid.W + (trainingSet.Grid.W - 1 - col)
			s[i] = mean[i] + 2*(x[src]-mean[src])
		}
		shifted = append(shifted, s)
	}
	for _, x := range shifted {
		if err := inc.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	adapted, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var staleSq, adaptedSq float64
	for _, x := range shifted {
		as, err := b.Approximate(x, k)
		if err != nil {
			t.Fatal(err)
		}
		aa, err := adapted.Approximate(x, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			staleSq += (x[i] - as[i]) * (x[i] - as[i])
			adaptedSq += (x[i] - aa[i]) * (x[i] - aa[i])
		}
	}
	if adaptedSq >= staleSq {
		t.Fatalf("adapted basis (%v) not better than frozen seed (%v) on the shifted regime",
			adaptedSq, staleSq)
	}
}

func TestIncrementalEnergyNonNegative(t *testing.T) {
	// Constant maps have zero centered energy; cancellation must clamp, not
	// go negative (the store format rejects negative energy).
	g := floorplan.Grid{W: 3, H: 2}
	inc, err := NewIncremental(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{71.25, 71.25, 71.25, 71.25, 71.25, 71.25}
	for j := 0; j < 9; j++ {
		if err := inc.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range inc.Energy() {
		if e < 0 || e > 1e-9 {
			t.Fatalf("cell %d energy %v, want ~0 and non-negative", i, e)
		}
	}
}
