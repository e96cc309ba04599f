package basis

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/metrics"
)

// trainingSet generates a small but thermally realistic ensemble once per
// test binary.
var trainingSet = func() *dataset.Dataset {
	ds, err := dataset.Generate(floorplan.UltraSparcT1(), dataset.GenConfig{
		Grid:      floorplan.Grid{W: 12, H: 10},
		Snapshots: 120,
		Seed:      42,
	})
	if err != nil {
		panic(err)
	}
	return ds
}()

func trainPCA(t *testing.T, kmax int) *Basis {
	t.Helper()
	b, err := TrainPCA(trainingSet, kmax, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTrainPCAShapes(t *testing.T) {
	b := trainPCA(t, 8)
	if b.KMax() != 8 || b.N() != 120 {
		t.Fatalf("KMax=%d N=%d", b.KMax(), b.N())
	}
	if len(b.Mean) != 120 || len(b.Importance) != 8 {
		t.Fatal("mean/importance lengths wrong")
	}
}

func TestTrainPCAOrthonormal(t *testing.T) {
	b := trainPCA(t, 8)
	if !mat.Gram(b.Psi).Equal(mat.Identity(8), 1e-9) {
		t.Fatal("PCA basis not orthonormal")
	}
}

func TestTrainPCAImportanceDescending(t *testing.T) {
	b := trainPCA(t, 10)
	for i := 1; i < len(b.Importance); i++ {
		if b.Importance[i] > b.Importance[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", b.Importance)
		}
	}
	if b.Importance[0] <= 0 {
		t.Fatal("leading eigenvalue not positive")
	}
}

func TestApproximationErrorDecreasesWithK(t *testing.T) {
	b := trainPCA(t, 12)
	prev := math.Inf(1)
	for k := 1; k <= 12; k += 2 {
		var ens metrics.Ensemble
		for j := 0; j < trainingSet.T(); j++ {
			ap, err := b.Approximate(trainingSet.Map(j), k)
			if err != nil {
				t.Fatal(err)
			}
			ens.Add(trainingSet.Map(j), ap)
		}
		if ens.MSE() > prev+1e-12 {
			t.Fatalf("K=%d MSE %v worse than smaller K %v", k, ens.MSE(), prev)
		}
		prev = ens.MSE()
	}
}

func TestProposition1TailSum(t *testing.T) {
	// Empirical training approximation error (summed over cells, averaged
	// over maps) must match the tail eigenvalue sum of eq. (2).
	kmax := 10
	b := trainPCA(t, kmax)
	// Need *all* eigenvalues for the tail; instead verify the complementary
	// identity: captured energy = Σ_{n<K} λ_n.
	x, _ := trainingSet.Centered()
	totalEnergy := 0.0
	for j := 0; j < x.Rows(); j++ {
		n := mat.Norm2(x.Row(j))
		totalEnergy += n * n
	}
	totalEnergy /= float64(x.Rows())
	for _, k := range []int{2, 5, 10} {
		var resid float64
		for j := 0; j < trainingSet.T(); j++ {
			ap, err := b.Approximate(trainingSet.Map(j), k)
			if err != nil {
				t.Fatal(err)
			}
			d := mat.SubVec(trainingSet.Map(j), ap)
			nd := mat.Norm2(d)
			resid += nd * nd
		}
		resid /= float64(trainingSet.T())
		captured := totalEnergy - resid
		var headSum float64
		for i := 0; i < k; i++ {
			headSum += b.Importance[i]
		}
		if math.Abs(captured-headSum) > 1e-6*totalEnergy {
			t.Fatalf("K=%d: captured %v != Σλ %v", k, captured, headSum)
		}
	}
}

func TestPCABeatsDCTOnTrainingSet(t *testing.T) {
	// Proposition 1 optimality: the PCA subspace must not lose to the DCT
	// subspace of equal dimension on the training ensemble.
	kmax := 8
	pca := trainPCA(t, kmax)
	dctB, err := TrainDCT(trainingSet, kmax, DCTEnergyRanked)
	if err != nil {
		t.Fatal(err)
	}
	mseOf := func(b *Basis, k int) float64 {
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
	for _, k := range []int{2, 4, 8} {
		if p, d := mseOf(pca, k), mseOf(dctB, k); p > d+1e-12 {
			t.Fatalf("K=%d: PCA MSE %v worse than DCT %v — violates optimality", k, p, d)
		}
	}
}

func TestSynthesizeCoefficientsRoundTrip(t *testing.T) {
	b := trainPCA(t, 6)
	alpha := []float64{3, -2, 1, 0.5, -0.25, 4}
	x := b.Synthesize(alpha)
	got, err := b.Coefficients(x, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range alpha {
		if math.Abs(got[i]-alpha[i]) > 1e-9 {
			t.Fatalf("coef %d: %v, want %v", i, got[i], alpha[i])
		}
	}
}

func TestApproximateIdempotent(t *testing.T) {
	// Projecting an already-projected map changes nothing.
	b := trainPCA(t, 5)
	x := trainingSet.Map(3)
	a1, err := b.Approximate(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.Approximate(a1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if math.Abs(a1[i]-a2[i]) > 1e-9 {
			t.Fatal("projection not idempotent")
		}
	}
}

func TestKRangeErrors(t *testing.T) {
	b := trainPCA(t, 4)
	if _, err := b.PsiK(0); !errors.Is(err, ErrKRange) {
		t.Fatalf("PsiK(0) err = %v", err)
	}
	if _, err := b.PsiK(5); !errors.Is(err, ErrKRange) {
		t.Fatalf("PsiK(5) err = %v", err)
	}
	if _, err := b.Coefficients(trainingSet.Map(0), 9); !errors.Is(err, ErrKRange) {
		t.Fatal("Coefficients should range-check K")
	}
	if _, err := b.Approximate(make([]float64, 3), 2); err == nil {
		t.Fatal("Approximate should length-check x")
	}
}

func TestSnapshotMethodMatchesSubspace(t *testing.T) {
	b1, err := trainPCASide(trainingSet, 5, PCACovariance, mat.SubspaceOptions{Rand: rand.New(rand.NewSource(1))}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := trainPCASide(trainingSet, 5, PCAGram, mat.SubspaceOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if math.Abs(b1.Importance[i]-b2.Importance[i]) > 1e-6*(b1.Importance[0]+1) {
			t.Fatalf("eigenvalue %d: %v vs %v", i, b1.Importance[i], b2.Importance[i])
		}
		d := math.Abs(mat.Dot(b1.Psi.Col(i), b2.Psi.Col(i)))
		if d < 1-1e-5 {
			t.Fatalf("eigenvector %d misaligned: %v", i, d)
		}
	}
}

func TestTrainDCTZigZagSelection(t *testing.T) {
	b, err := TrainDCT(trainingSet, 6, DCTZigZag)
	if err != nil {
		t.Fatal(err)
	}
	if b.KMax() != 6 {
		t.Fatalf("KMax = %d", b.KMax())
	}
	if !mat.Gram(b.Psi).Equal(mat.Identity(6), 1e-10) {
		t.Fatal("DCT basis not orthonormal")
	}
}

func TestTrainDCTEnergyRankedImportanceDescending(t *testing.T) {
	b, err := TrainDCT(trainingSet, 10, DCTEnergyRanked)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(b.Importance); i++ {
		if b.Importance[i] > b.Importance[i-1]+1e-12 {
			t.Fatalf("energy ranking not descending: %v", b.Importance)
		}
	}
}

func TestEnergyRankedNoWorseThanZigZag(t *testing.T) {
	k := 8
	zz, err := TrainDCT(trainingSet, k, DCTZigZag)
	if err != nil {
		t.Fatal(err)
	}
	er, err := TrainDCT(trainingSet, k, DCTEnergyRanked)
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
	if e, z := mseOf(er), mseOf(zz); e > z+1e-12 {
		t.Fatalf("energy-ranked MSE %v worse than zigzag %v", e, z)
	}
}

func TestTrainRejectsBadKmax(t *testing.T) {
	if _, err := TrainPCA(trainingSet, 0, 0); err == nil {
		t.Fatal("expected kmax error")
	}
	if _, err := TrainDCT(trainingSet, 0, DCTZigZag); err == nil {
		t.Fatal("expected kmax error")
	}
}

func TestTrainDCTUnknownSelection(t *testing.T) {
	if _, err := TrainDCT(trainingSet, 4, DCTSelection(99)); err == nil {
		t.Fatal("expected selection error")
	}
}

func TestDCTSelectionString(t *testing.T) {
	if DCTZigZag.String() != "zigzag" || DCTEnergyRanked.String() != "energy-ranked" {
		t.Fatal("selection names wrong")
	}
	if DCTSelection(7).String() != "DCTSelection(7)" {
		t.Fatal("unknown selection name wrong")
	}
}

func TestBasisSaveLoadRoundTrip(t *testing.T) {
	b := trainPCA(t, 6)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != b.Name || got.Grid != b.Grid || got.KMax() != b.KMax() {
		t.Fatalf("metadata changed: %q %v %d", got.Name, got.Grid, got.KMax())
	}
	if !got.Psi.Equal(b.Psi, 0) {
		t.Fatal("basis matrix not bit-identical")
	}
	for i := range b.Mean {
		if got.Mean[i] != b.Mean[i] {
			t.Fatal("mean changed")
		}
	}
	for i := range b.Importance {
		if got.Importance[i] != b.Importance[i] {
			t.Fatal("importance changed")
		}
	}
	// The loaded basis must be functional.
	ap1, err := b.Approximate(trainingSet.Map(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	ap2, err := got.Approximate(trainingSet.Map(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ap1 {
		if ap1[i] != ap2[i] {
			t.Fatal("loaded basis approximates differently")
		}
	}
}

func TestBasisLoadRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("YUCK")); err == nil {
		t.Fatal("expected short-header error")
	}
	if _, err := Decode([]byte("YUCKYUCKYUCKYUCKYUCKYUCK")); err == nil {
		t.Fatal("expected magic error")
	}
	var buf bytes.Buffer
	b := trainPCA(t, 4)
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Decode(raw[:len(raw)-5]); err == nil {
		t.Fatal("expected truncation error")
	}
	if _, err := Decode(append(raw[:len(raw):len(raw)], 0)); err == nil {
		t.Fatal("expected trailing-byte error")
	}
	// A bare 24-byte header declaring a 65536×65536 grid must fail on the
	// byte count, before allocating the 32 GiB its mean alone would need.
	head := []byte(basisMagic)
	for _, v := range []uint32{basisVersion, 0, 65536, 65536, 1} {
		head = binary.LittleEndian.AppendUint32(head, v)
	}
	if _, err := Decode(head); err == nil {
		t.Fatal("expected an error for a header larger than its bytes")
	}
}
