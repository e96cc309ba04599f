package mat

import (
	"math"
	"math/rand"
	"testing"
)

// syntheticData builds a T×N data matrix with a planted covariance spectrum:
// rows are x = Σ √λ_j g_j u_j for orthonormal u_j and unit normal g_j.
func syntheticData(t, n int, lambdas []float64, rng *rand.Rand) (*Matrix, *Matrix) {
	u := RandomOrthonormal(n, len(lambdas), rng)
	x := New(t, n)
	for r := 0; r < t; r++ {
		row := x.Row(r)
		for j, lam := range lambdas {
			g := rng.NormFloat64() * math.Sqrt(lam)
			for i := 0; i < n; i++ {
				row[i] += g * u.At(i, j)
			}
		}
	}
	return x, u
}

func TestTopCovarianceEigenMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	x := RandomMatrix(60, 20, rng)
	// Dense reference: eigen of XᵀX/T.
	cov := Gram(x).Scale(1.0 / 60)
	ref, err := SymEigen(cov)
	if err != nil {
		t.Fatal(err)
	}
	k := 5
	vals, vecs, err := TopCovarianceEigen(x, k, SubspaceOptions{Rand: rng, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if !almostEqual(vals[i], ref.Values[i], 1e-8*(ref.Values[0]+1)) {
			t.Fatalf("eigenvalue %d: got %v want %v", i, vals[i], ref.Values[i])
		}
		// Eigenvector match up to sign: |⟨v, ref⟩| ≈ 1.
		d := math.Abs(Dot(vecs.Col(i), ref.Vectors.Col(i)))
		if d < 1-1e-6 {
			t.Fatalf("eigenvector %d misaligned: |dot| = %v", i, d)
		}
	}
}

func TestTopCovarianceEigenOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := RandomMatrix(50, 30, rng)
	_, vecs, err := TopCovarianceEigen(x, 6, SubspaceOptions{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if !Gram(vecs).Equal(Identity(6), 1e-10) {
		t.Fatal("eigenvector block not orthonormal")
	}
}

func TestTopCovarianceEigenPlantedSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lambdas := []float64{100, 25, 4}
	x, u := syntheticData(4000, 15, lambdas, rng)
	vals, vecs, err := TopCovarianceEigen(x, 3, SubspaceOptions{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	// With 4000 samples the sample spectrum concentrates near the truth.
	for i, lam := range lambdas {
		if math.Abs(vals[i]-lam) > 0.15*lam {
			t.Fatalf("λ%d = %v, want ≈ %v", i, vals[i], lam)
		}
		d := math.Abs(Dot(vecs.Col(i), u.Col(i)))
		if d < 0.98 {
			t.Fatalf("planted direction %d recovered with |dot| = %v", i, d)
		}
	}
}

func TestTopCovarianceEigenClampsK(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := RandomMatrix(5, 10, rng) // rank ≤ 5
	vals, vecs, err := TopCovarianceEigen(x, 50, SubspaceOptions{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 5 || vecs.Cols() != 5 {
		t.Fatalf("K should clamp to min(T,N)=5, got %d", len(vals))
	}
}

func TestTopCovarianceEigenZeroK(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	x := RandomMatrix(5, 5, rng)
	vals, vecs, err := TopCovarianceEigen(x, 0, SubspaceOptions{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 0 || vecs.Cols() != 0 {
		t.Fatal("K=0 should yield empty result")
	}
}

func TestSnapshotPODMatchesSubspaceIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	x, _ := syntheticData(80, 25, []float64{50, 10, 2, 0.5}, rng)
	v1, e1, err := TopCovarianceEigen(x, 4, SubspaceOptions{Rand: rng, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	v2, e2, err := SnapshotPOD(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !almostEqual(v1[i], v2[i], 1e-6*(v1[0]+1)) {
			t.Fatalf("eigenvalue %d: subspace %v vs snapshots %v", i, v1[i], v2[i])
		}
		d := math.Abs(Dot(e1.Col(i), e2.Col(i)))
		if d < 1-1e-5 {
			t.Fatalf("eigenvector %d misaligned across methods: %v", i, d)
		}
	}
}

func TestSnapshotPODEigenvaluesNonNegativeDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	x := RandomMatrix(30, 12, rng)
	vals, _, err := SnapshotPOD(x, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v < 0 {
			t.Fatalf("negative eigenvalue %v", v)
		}
		if i > 0 && v > vals[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", vals)
		}
	}
}

func TestSignNormalizationDeterministic(t *testing.T) {
	// Two different random starts must give identical bases (up to tolerance)
	// thanks to sign normalization.
	base := rand.New(rand.NewSource(47))
	x, _ := syntheticData(500, 20, []float64{40, 9, 1}, base)
	_, e1, err := TopCovarianceEigen(x, 3, SubspaceOptions{Rand: rand.New(rand.NewSource(1)), Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	_, e2, err := TopCovarianceEigen(x, 3, SubspaceOptions{Rand: rand.New(rand.NewSource(999)), Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if !e1.Equal(e2, 1e-5) {
		t.Fatal("different random starts produced different signed bases")
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := RandomSPD(8, rng)
	want := RandomMatrix(1, 8, rng).Row(0)
	b := MulVec(a, want)
	got, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-8) {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCholeskyFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	a := RandomSPD(6, rng)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.l
	if !Mul(l, l.T()).Equal(a, 1e-10) {
		t.Fatal("LLᵀ != A")
	}
	// Upper triangle of L must be zero.
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if l.At(i, j) != 0 {
				t.Fatal("L not lower triangular")
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFromData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected failure on indefinite matrix")
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-14) {
		t.Fatal("Norm2 wrong")
	}
	if NormInf([]float64{-7, 3}) != 7 {
		t.Fatal("NormInf wrong")
	}
	v := []float64{1, 1}
	AXPY(2, []float64{1, 2}, v)
	if v[0] != 3 || v[1] != 5 {
		t.Fatal("AXPY wrong")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean of empty should be 0")
	}
	lo, hi := MinMax([]float64{3, -1, 2})
	if lo != -1 || hi != 3 {
		t.Fatal("MinMax wrong")
	}
	u := []float64{3, 4}
	n := Normalize(u)
	if !almostEqual(n, 5, 1e-14) || !almostEqual(Norm2(u), 1, 1e-14) {
		t.Fatal("Normalize wrong")
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("Normalize of zero vector should return 0")
	}
	if !almostEqual(Norm2([]float64{1e200, 1e200}), 1e200*math.Sqrt2, 1e188) {
		t.Fatal("Norm2 overflow guard failed")
	}
}
