package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingularValuesDiagonal(t *testing.T) {
	a := Diag([]float64{-4, 2, 1})
	sv, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 2, 1}
	for i := range want {
		if !almostEqual(sv[i], want[i], 1e-9) {
			t.Fatalf("sv = %v, want %v", sv, want)
		}
	}
}

func TestSingularValuesOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	q := RandomOrthonormal(8, 4, rng)
	sv, err := SingularValues(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sv {
		if !almostEqual(s, 1, 1e-8) {
			t.Fatalf("orthonormal matrix singular values = %v, want all 1", sv)
		}
	}
}

func TestSingularValuesWideMatchesTall(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := RandomMatrix(6, 3, rng)
	s1, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SingularValues(a.T())
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if !almostEqual(s1[i], s2[i], 1e-9) {
			t.Fatalf("σ(A) = %v, σ(Aᵀ) = %v", s1, s2)
		}
	}
}

func TestCondIdentity(t *testing.T) {
	c, err := Cond(Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 1, 1e-8) {
		t.Fatalf("κ(I) = %v, want 1", c)
	}
}

func TestCondSingularIsInf(t *testing.T) {
	a := NewFromData(2, 2, []float64{1, 1, 1, 1})
	c, err := Cond(a)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(c, 1) {
		t.Fatalf("κ(singular) = %v, want +Inf", c)
	}
}

func TestCondDiag(t *testing.T) {
	c, err := Cond(Diag([]float64{10, 5, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 5, 1e-8) {
		t.Fatalf("κ = %v, want 5", c)
	}
}

// Property: Frobenius norm equals sqrt of sum of squared singular values.
func TestSVDNormConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(7), 1+r.Intn(7)
		a := RandomMatrix(m, n, r)
		sv, err := SingularValues(a)
		if err != nil {
			return false
		}
		var s float64
		for _, x := range sv {
			s += x * x
		}
		fn := a.FrobeniusNorm()
		return math.Abs(math.Sqrt(s)-fn) < 1e-8*(fn+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(35))}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling a matrix scales all singular values, leaving κ unchanged.
func TestCondScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a := RandomMatrix(n+2, n, r)
		c1, err1 := Cond(a)
		c2, err2 := Cond(a.Clone().Scale(3.7))
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(c1-c2) < 1e-6*c1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(36))}); err != nil {
		t.Fatal(err)
	}
}
