package mat

import (
	"math"
	"math/rand"
	"testing"
)

// garbage fills v with NaN, so a write-into kernel that reads its
// destination instead of overwriting it shows.
func garbage(v []float64) {
	for i := range v {
		v[i] = math.NaN()
	}
}

func sameBitsSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestProductIntoFormsMatchAllocating checks that MulVecInto, MulInto and
// MulTBInto overwrite a dirty destination with exactly the allocating
// product's bits, including Mul's skip of zero factors (a has exact zeros).
func TestProductIntoFormsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := RandomMatrix(5, 7, rng)
	a.Set(1, 3, 0)
	a.Set(4, 0, 0)
	b := RandomMatrix(7, 4, rng)
	c := RandomMatrix(6, 7, rng)
	x := RandomMatrix(1, 7, rng).Row(0)

	v := make([]float64, 5)
	garbage(v)
	MulVecInto(v, a, x)
	if !sameBitsSlice(v, MulVec(a, x)) {
		t.Fatal("MulVecInto differs from MulVec")
	}
	ab := New(5, 4)
	garbage(ab.Data())
	MulInto(ab, a, b)
	if !sameBitsSlice(ab.Data(), Mul(a, b).Data()) {
		t.Fatal("MulInto differs from Mul")
	}
	act := New(5, 6)
	garbage(act.Data())
	MulTBInto(act, a, c)
	if !sameBitsSlice(act.Data(), MulTB(a, c).Data()) {
		t.Fatal("MulTBInto differs from MulTB")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		MulVecInto(v, a, x)
		MulInto(ab, a, b)
		MulTBInto(act, a, c)
	}); allocs != 0 {
		t.Fatalf("write-into products allocate %v times per run", allocs)
	}
}

func TestProductIntoFormsRejectWrongDestination(t *testing.T) {
	a, b := New(2, 3), New(3, 4)
	c := solveCase(rand.New(rand.NewSource(34)), 3)
	for name, f := range map[string]func(){
		"MulVecInto":                func() { MulVecInto(make([]float64, 3), a, make([]float64, 3)) },
		"MulInto":                   func() { MulInto(New(2, 3), a, b) },
		"MulTBInto":                 func() { MulTBInto(New(2, 3), a, New(4, 3)) },
		"MulLowerInto non-square":   func() { MulLowerInto(New(2, 4), a, b) },
		"MulLowerInto wrong dst":    func() { MulLowerInto(New(3, 2), New(3, 4), New(4, 3)) },
		"SolveRowsInto wrong order": func() { c.SolveRowsInto(New(2, 4), New(2, 4)) },
		"SolveRowsInto wrong rows":  func() { c.SolveRowsInto(New(3, 3), New(2, 3)) },
	} {
		func() {
			defer func() {
				if recover() != ErrShape {
					t.Fatalf("%s: want ErrShape panic", name)
				}
			}()
			f()
		}()
	}
}

// TestCholeskyFactorizeReusesStorage refactors one Cholesky over matrices of
// the same order and checks every factor and solve against a fresh
// NewCholesky bit for bit, with the solve aliased onto its right-hand side,
// and that refactoring and solving allocate nothing.
func TestCholeskyFactorizeReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var c Cholesky
	for trial := 0; trial < 3; trial++ {
		a := RandomSPD(7, rng)
		if err := c.Factorize(a); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBitsSlice(c.l.Data(), fresh.l.Data()) {
			t.Fatalf("trial %d: refactored L differs from NewCholesky's", trial)
		}
		b := RandomMatrix(1, 7, rng).Row(0)
		want := fresh.Solve(b)
		c.SolveInto(b, b)
		if !sameBitsSlice(b, want) {
			t.Fatalf("trial %d: aliased SolveInto differs from Solve", trial)
		}
	}
	a := RandomSPD(7, rng)
	x := make([]float64, 7)
	b := RandomMatrix(1, 7, rng).Row(0)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.Factorize(a); err != nil {
			t.Fatal(err)
		}
		c.SolveInto(x, b)
	}); allocs != 0 {
		t.Fatalf("Factorize+SolveInto allocate %v times per run", allocs)
	}
	if err := c.Factorize(NewFromData(2, 2, []float64{1, 2, 2, 1})); err != ErrSingular {
		t.Fatalf("indefinite matrix: err %v, want ErrSingular", err)
	}
}
