package basis

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/metrics"
)

func TestIncrementalValidation(t *testing.T) {
	g := floorplan.Grid{W: 4, H: 4}
	if _, err := NewIncremental(g, 0, 8); err == nil {
		t.Fatal("kmax 0 should fail")
	}
	if _, err := NewIncremental(floorplan.Grid{}, 4, 8); err == nil {
		t.Fatal("empty grid should fail")
	}
	inc, err := NewIncremental(g, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Add(make([]float64, 3)); err == nil {
		t.Fatal("wrong map length should fail")
	}
	if _, err := inc.Snapshot(); err == nil {
		t.Fatal("empty snapshot should fail")
	}
}

func TestIncrementalMeanExact(t *testing.T) {
	inc, err := NewIncremental(trainingSet.Grid, 6, 16)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < trainingSet.T(); j++ {
		if err := inc.Add(trainingSet.Map(j)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := trainingSet.Mean()
	for i := range want {
		if math.Abs(b.Mean[i]-want[i]) > 1e-9 {
			t.Fatalf("streamed mean off at %d: %v vs %v", i, b.Mean[i], want[i])
		}
	}
	if inc.Count() != trainingSet.T() {
		t.Fatalf("count %d", inc.Count())
	}
}

func TestIncrementalMatchesBatchPCA(t *testing.T) {
	kmax := 8
	inc, err := NewIncremental(trainingSet.Grid, kmax, 20)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < trainingSet.T(); j++ {
		if err := inc.Add(trainingSet.Map(j)); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := TrainPCA(trainingSet, kmax, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Leading eigenvalues agree to a few percent (tail truncation at each
	// merge perturbs only the discarded components).
	for i := 0; i < 4; i++ {
		rel := math.Abs(streamed.Importance[i]-batch.Importance[i]) / batch.Importance[0]
		if rel > 0.05 {
			t.Fatalf("λ%d: streamed %v vs batch %v", i, streamed.Importance[i], batch.Importance[i])
		}
	}
	// Leading subspace aligns.
	for i := 0; i < 3; i++ {
		d := math.Abs(mat.Dot(streamed.Psi.Col(i), batch.Psi.Col(i)))
		if d < 0.97 {
			t.Fatalf("component %d misaligned: |dot| = %v", i, d)
		}
	}
}

func TestIncrementalApproximationQuality(t *testing.T) {
	// The streamed basis must approximate the ensemble almost as well as
	// batch PCA at the same K.
	k := 6
	inc, err := NewIncremental(trainingSet.Grid, 10, 24)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < trainingSet.T(); j++ {
		if err := inc.Add(trainingSet.Map(j)); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := TrainPCA(trainingSet, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	mseOf := func(b *Basis) float64 {
		var ens metrics.Ensemble
		for j := 0; j < trainingSet.T(); j++ {
			ap, err := b.Approximate(trainingSet.Map(j), k)
			if err != nil {
				t.Fatal(err)
			}
			ens.Add(trainingSet.Map(j), ap)
		}
		return ens.MSE()
	}
	sm, bm := mseOf(streamed), mseOf(batch)
	if sm > bm*1.5+1e-9 {
		t.Fatalf("streamed MSE %v much worse than batch %v", sm, bm)
	}
}

func TestIncrementalSnapshotIndependence(t *testing.T) {
	inc, err := NewIncremental(trainingSet.Grid, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 40; j++ {
		if err := inc.Add(trainingSet.Map(j)); err != nil {
			t.Fatal(err)
		}
	}
	b1, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	frozen := b1.Psi.Clone()
	for j := 40; j < trainingSet.T(); j++ {
		if err := inc.Add(trainingSet.Map(j)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inc.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if !b1.Psi.Equal(frozen, 0) {
		t.Fatal("earlier snapshot mutated by later Adds")
	}
}

func TestIncrementalAdaptsToDrift(t *testing.T) {
	// Feed one regime, then a very different one; the refreshed basis must
	// explain the new regime better than the stale basis does.
	k := 4
	half := trainingSet.T() / 2
	// Regime A: the training ensemble. Regime B: maps with reversed sign of
	// deviation from the mean (synthetic drift with identical mean).
	mean := trainingSet.Mean()
	// Stale basis: trained on regime A only.
	incA, err := NewIncremental(trainingSet.Grid, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < half; j++ {
		if err := incA.Add(trainingSet.Map(j)); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := incA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Refreshed: keeps absorbing regime B (scaled deviations: 3× hotter
	// contrasts — a new dominant direction scale).
	regimeB := make([][]float64, 0, trainingSet.T()-half)
	for j := half; j < trainingSet.T(); j++ {
		x := trainingSet.Map(j)
		b := make([]float64, len(x))
		for i := range x {
			b[i] = mean[i] + 3*(x[i]-mean[i])
		}
		regimeB = append(regimeB, b)
	}
	for _, x := range regimeB {
		if err := incA.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	refreshed, err := incA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var staleEns, freshEns metrics.Ensemble
	for _, x := range regimeB {
		as, err := stale.Approximate(x, k)
		if err != nil {
			t.Fatal(err)
		}
		af, err := refreshed.Approximate(x, k)
		if err != nil {
			t.Fatal(err)
		}
		staleEns.Add(x, as)
		freshEns.Add(x, af)
	}
	if freshEns.MSE() > staleEns.MSE() {
		t.Fatalf("refreshed basis (%v) not better than stale (%v) on the new regime",
			freshEns.MSE(), staleEns.MSE())
	}
}

func TestIncrementalOrthonormal(t *testing.T) {
	inc, err := NewIncremental(trainingSet.Grid, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 55; j++ { // deliberately not a multiple of bufCap
		if err := inc.Add(trainingSet.Map(j)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	k := b.KMax()
	if !mat.Gram(b.Psi).Equal(mat.Identity(k), 1e-9) {
		t.Fatal("streamed basis not orthonormal")
	}
}
