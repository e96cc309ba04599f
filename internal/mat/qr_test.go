package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := RandomMatrix(8, 5, rng)
	f := NewQR(a)
	qr := Mul(f.Q(), f.R())
	if !qr.Equal(a, 1e-12) {
		t.Fatalf("Q·R != A, maxdiff=%v", qr.Clone().SubMatrix(a).MaxAbs())
	}
}

func TestQROrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := RandomMatrix(9, 4, rng)
	q := NewQR(a).Q()
	if !Gram(q).Equal(Identity(4), 1e-12) {
		t.Fatal("QᵀQ != I")
	}
}

func TestQRUpperTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	r := NewQR(RandomMatrix(6, 6, rng)).R()
	for i := 1; i < 6; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R(%d,%d) = %v below diagonal", i, j, r.At(i, j))
			}
		}
	}
}

func TestQRSquareSystemExact(t *testing.T) {
	a := NewFromData(2, 2, []float64{2, 1, 1, 3})
	x, err := NewQR(a).Solve([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// Exact solution: x = [1, 3].
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("solve = %v, want [1 3]", x)
	}
}

func TestQRLeastSquaresResidualOrthogonal(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(13))
	a := RandomMatrix(10, 4, rng)
	b := RandomMatrix(1, 10, rng).Row(0)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := SubVec(b, MulVec(a, x))
	proj := MulVecT(a, res)
	if NormInf(proj) > 1e-10 {
		t.Fatalf("Aᵀr = %v, want ~0", proj)
	}
}

func TestQRSolveRecoversPlantedSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := RandomMatrix(12, 5, rng)
	want := []float64{1, -2, 3, 0.5, -0.25}
	b := MulVec(a, want)
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-10) {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQRSingularDetected(t *testing.T) {
	// Two identical columns: rank deficient.
	a := NewFromData(3, 2, []float64{1, 1, 2, 2, 3, 3})
	_, err := LeastSquares(a, []float64{1, 2, 3})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestQRRank(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	full := RandomMatrix(6, 4, rng)
	if r := NewQR(full).Rank(); r != 4 {
		t.Fatalf("full-rank matrix Rank = %d, want 4", r)
	}
	// Make column 3 a combination of columns 0 and 1.
	def := full.Clone()
	for i := 0; i < 6; i++ {
		def.Set(i, 3, 2*def.At(i, 0)-def.At(i, 1))
	}
	if r := NewQR(def).Rank(); r != 3 {
		t.Fatalf("deficient matrix Rank = %d, want 3", r)
	}
}

func TestQRRequiresTallMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wide matrix")
		}
	}()
	NewQR(New(2, 3))
}

func TestOrthonormalizeSpansSameSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := RandomMatrix(8, 3, rng)
	q := Orthonormalize(a)
	// Each column of A must be reproduced by projecting onto span(Q).
	proj := Mul(q, MulTA(q, a)) // Q Qᵀ A
	if !proj.Equal(a, 1e-11) {
		t.Fatal("span(Q) does not contain columns of A")
	}
}

// Property: least-squares solution is no worse than any random candidate.
func TestLeastSquaresOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 4 + r.Intn(8)
		n := 1 + r.Intn(4)
		if n > m {
			n = m
		}
		a := RandomMatrix(m, n, r)
		b := RandomMatrix(1, m, r).Row(0)
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient draws are skipped
		}
		opt := Norm2(SubVec(b, MulVec(a, x)))
		for trial := 0; trial < 5; trial++ {
			cand := RandomMatrix(1, n, r).Row(0)
			if Norm2(SubVec(b, MulVec(a, cand))) < opt-1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Fatal(err)
	}
}

// Property: |det-ish| invariance — product of |R_ii| equals sqrt(det(AᵀA)).
func TestQRDiagonalMagnitudeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := RandomMatrix(5, 5, rng)
	f := NewQR(a)
	var prod float64 = 1
	for i := 0; i < 5; i++ {
		prod *= math.Abs(f.R().At(i, i))
	}
	// det(AᵀA) = det(RᵀR) = prod².
	g := Gram(a)
	eg, err := SymEigen(g)
	if err != nil {
		t.Fatal(err)
	}
	det := 1.0
	for _, v := range eg.Values {
		det *= v
	}
	if !almostEqual(prod*prod/det, 1, 1e-8) {
		t.Fatalf("ΠR_ii² = %v, det(AᵀA) = %v", prod*prod, det)
	}
}
