package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bit-identity pins for the create-path kernels: SymEigen, NewQR/Q,
// Orthonormalize and the covariance apply must reproduce the reference
// formulations in reference_test.go bit for bit, not merely to a tolerance
// — greedy placement compares correlations in float32, so a last-bit change
// in a trained basis can move a sensor.

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameMatrixBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.rows, got.cols, want.rows, want.cols)
	}
	sameBits(t, what, got.data, want.data)
}

// spectral returns Q·diag(lambda)·Qᵀ for a random orthogonal Q.
func spectral(lambda []float64, rng *rand.Rand) *Matrix {
	n := len(lambda)
	q := refOrthonormalize(RandomMatrix(n, n, rng))
	qd := q.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qd.data[i*n+j] *= lambda[j]
		}
	}
	return MulTB(qd, q)
}

func symEigenCases(n int, rng *rand.Rand) map[string]*Matrix {
	graded := make([]float64, n)
	repeated := make([]float64, n)
	diag := make([]float64, n)
	for i := range graded {
		if n > 1 {
			graded[i] = math.Pow(10, -14*float64(i)/float64(n-1))
		} else {
			graded[i] = 1
		}
		repeated[i] = float64(1 + i%3)
		diag[i] = rng.NormFloat64()
	}
	cases := map[string]*Matrix{
		"spd":      RandomSPD(n, rng),
		"graded":   spectral(graded, rng),
		"repeated": spectral(repeated, rng),
		"diagonal": Diag(diag),
		"zero":     New(n, n),
	}
	if n <= 64 {
		// SymEigen symmetrizes its input; pin that copy too.
		cases["asymmetric"] = RandomMatrix(n, n, rng)
	}
	return cases
}

func TestSymEigenBitIdenticalToReference(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 32, 64, 192, 384}
	if raceEnabled {
		sizes = sizes[:len(sizes)-1] // the n = 384 reference takes minutes under -race
	}
	rng := rand.New(rand.NewSource(160))
	for _, n := range sizes {
		for name, a := range symEigenCases(n, rng) {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				got, err := SymEigen(a)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refSymEigen(a)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "values", got.Values, want.Values)
				sameMatrixBits(t, "vectors", got.Vectors, want.Vectors)
				k := (n + 1) / 2
				gv, gm := got.TopK(k)
				wv, wm := want.TopK(k)
				sameBits(t, "TopK values", gv, wv)
				sameMatrixBits(t, "TopK vectors", gm, wm)
			})
		}
	}
}

// qrCases returns a full-rank matrix of each shape plus copies with a zero
// column and with a rank-deficient column (a combination of two others).
func qrCases(m, n int, rng *rand.Rand) map[string]*Matrix {
	full := RandomMatrix(m, n, rng)
	zero := full.Clone()
	deficient := full.Clone()
	for i := 0; i < m; i++ {
		zero.data[i*n+n/2] = 0
		deficient.data[i*n+n-1] = 2*deficient.data[i*n] - 0.5*deficient.data[i*n+1]
	}
	return map[string]*Matrix{"full": full, "zero-column": zero, "rank-deficient": deficient}
}

func TestHouseholderBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	for _, shape := range [][2]int{{7, 7}, {64, 16}, {1024, 32}, {3360, 40}} {
		for name, a := range qrCases(shape[0], shape[1], rng) {
			t.Run(fmt.Sprintf("%dx%d/%s", shape[0], shape[1], name), func(t *testing.T) {
				wantPacked, wantTau := refQR(a)
				wantQ := refQ(wantPacked, wantTau)
				f := NewQR(a)
				packed, tau := f.Factors()
				sameMatrixBits(t, "packed factors", packed, wantPacked)
				sameBits(t, "tau", tau, wantTau)
				sameMatrixBits(t, "QR.Q", f.Q(), wantQ)
				sameMatrixBits(t, "Orthonormalize", Orthonormalize(a), wantQ)
			})
		}
	}
}

// covData returns a random T×N matrix with a share of exact zeros of both
// signs (a whole zero row and column plus scattered zeros): the entries the
// reference products skip and the batch kernel multiplies through.
func covData(t, n int, rng *rand.Rand) *Matrix {
	x := RandomMatrix(t, n, rng)
	negZero := math.Copysign(0, -1)
	for i := 0; i < t; i++ {
		for j := 0; j < n; j++ {
			if i == 1 || j == 2 || rng.Intn(5) == 0 {
				x.data[i*n+j] = 0
				if rng.Intn(2) == 0 {
					x.data[i*n+j] = negZero
				}
			}
		}
	}
	return x
}

func TestCovarianceApplyBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	for _, shape := range [][3]int{{5, 9, 3}, {40, 120, 13}, {384, 1024, 32}, {200, 150, 18}} {
		tt, n, p := shape[0], shape[1], shape[2]
		x := covData(tt, n, rng)
		v := RandomMatrix(n, p, rng)
		for i := 0; i < n; i += 7 {
			v.data[i*p] = 0
		}
		got := newCovApply(x).apply(v.T())
		sameMatrixBits(t, fmt.Sprintf("%dx%d p=%d", tt, n, p), got, refApplyCov(x, v).T())
	}
}

func TestTopCovarianceEigenBitIdenticalToReference(t *testing.T) {
	for _, shape := range [][3]int{{60, 40, 4}, {150, 120, 6}, {96, 400, 6}} {
		rng := rand.New(rand.NewSource(163))
		x, _ := syntheticData(shape[0], shape[1], []float64{50, 20, 8, 3, 1, 0.4, 0.1, 0.02}, rng)
		for i := 0; i < shape[0]; i += 5 {
			x.data[i*shape[1]+3] = 0
		}
		k := shape[2]
		gotVals, gotVecs, err := TopCovarianceEigen(x, k, SubspaceOptions{Rand: rand.New(rand.NewSource(7))})
		if err != nil {
			t.Fatal(err)
		}
		wantVals, wantVecs, err := refTopCovarianceEigen(x, k, SubspaceOptions{Rand: rand.New(rand.NewSource(7))})
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "eigenvalues", gotVals, wantVals)
		sameMatrixBits(t, "eigenvectors", gotVecs, wantVecs)
	}
}

func TestRowGramWorkersBitIdenticalToRowGram(t *testing.T) {
	rng := rand.New(rand.NewSource(165))
	for _, shape := range [][2]int{{1, 5}, {7, 3}, {45, 300}, {193, 640}} {
		x := covData(shape[0], shape[1], rng)
		want := RowGram(x)
		for _, workers := range []int{1, 2, 3} {
			got := RowGramWorkers(x, workers)
			sameMatrixBits(t, fmt.Sprintf("%dx%d workers=%d", shape[0], shape[1], workers), got, want)
		}
	}
}
