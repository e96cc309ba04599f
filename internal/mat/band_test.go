package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randomSPDBand builds a random symmetric positive-definite band matrix by
// filling the band with noise and making the diagonal strictly dominant.
func randomSPDBand(n, bw int, rng *rand.Rand) *SymBand {
	a := NewSymBand(n, bw)
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if j != i {
				rowSum += math.Abs(a.At(i, j))
			}
		}
		a.Set(i, i, rowSum+1+rng.Float64())
	}
	return a
}

func TestSymBandAtSetSymmetry(t *testing.T) {
	a := NewSymBand(5, 2)
	a.Set(3, 1, 7)
	if a.At(3, 1) != 7 || a.At(1, 3) != 7 {
		t.Fatalf("symmetric access broken: %v %v", a.At(3, 1), a.At(1, 3))
	}
	a.Set(1, 3, 9) // upper-triangle spelling of the same entry
	if a.At(3, 1) != 9 {
		t.Fatal("Set via upper index did not update the stored entry")
	}
	if a.At(0, 4) != 0 {
		t.Fatal("outside-band entry not zero")
	}
}

func TestSymBandSetOutsideBandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSymBand(6, 1).Set(4, 0, 1)
}

func TestSymBandBandwidthClamped(t *testing.T) {
	a := NewSymBand(4, 99)
	if a.Bandwidth() != 3 {
		t.Fatalf("bandwidth %d, want clamp to 3", a.Bandwidth())
	}
}

// TestBandCholeskyMatchesDense pins factor and solve against the dense
// Cholesky across orders and bandwidths, including the diagonal (bw=0) and
// effectively dense (bw=n−1) extremes.
func TestBandCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct{ n, bw int }{
		{1, 0}, {7, 0}, {8, 1}, {12, 3}, {30, 5}, {25, 24}, {40, 11},
	} {
		a := randomSPDBand(tc.n, tc.bw, rng)
		bc, err := NewBandCholesky(a)
		if err != nil {
			t.Fatalf("n=%d bw=%d: %v", tc.n, tc.bw, err)
		}
		dc, err := NewCholesky(a.Dense())
		if err != nil {
			t.Fatalf("n=%d bw=%d dense: %v", tc.n, tc.bw, err)
		}
		// Factors agree entrywise (both are the unique lower Cholesky factor).
		dl := dc.l
		for i := 0; i < tc.n; i++ {
			for j := 0; j <= i; j++ {
				got := bc.lower(i, j)
				if math.Abs(got-dl.At(i, j)) > 1e-10 {
					t.Fatalf("n=%d bw=%d: L[%d][%d] = %v, dense %v", tc.n, tc.bw, i, j, got, dl.At(i, j))
				}
			}
		}
		// Solves agree.
		b := make([]float64, tc.n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := bc.Solve(b)
		want := dc.Solve(b)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("n=%d bw=%d: x[%d] = %v, dense %v", tc.n, tc.bw, i, got[i], want[i])
			}
		}
	}
}

func TestBandCholeskyResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPDBand(60, 8, rng)
	bc, err := NewBandCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 60)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := bc.Solve(b)
	// ‖A·x − b‖ must vanish to working precision.
	for i := 0; i < 60; i++ {
		var s float64
		for j := 0; j < 60; j++ {
			s += a.At(i, j) * x[j]
		}
		if math.Abs(s-b[i]) > 1e-9 {
			t.Fatalf("residual %v at row %d", s-b[i], i)
		}
	}
}

func TestBandCholeskySolveIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPDBand(20, 4, rng)
	bc, err := NewBandCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := bc.Solve(b)
	inPlace := append([]float64(nil), b...)
	bc.SolveInto(inPlace, inPlace) // dst aliases b
	for i := range want {
		if inPlace[i] != want[i] {
			t.Fatalf("aliased solve diverged at %d: %v vs %v", i, inPlace[i], want[i])
		}
	}
}

func TestBandCholeskySolveIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPDBand(32, 6, rng)
	bc, err := NewBandCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 32)
	x := make([]float64, 32)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	if allocs := testing.AllocsPerRun(50, func() { bc.SolveInto(x, b) }); allocs != 0 {
		t.Fatalf("SolveInto allocated %v times per run", allocs)
	}
}

func TestBandCholeskyRejectsNotPositiveDefinite(t *testing.T) {
	// An indefinite band matrix: off-diagonal larger than the diagonal.
	a := NewSymBand(4, 1)
	for i := 0; i < 4; i++ {
		a.Set(i, i, 1)
	}
	a.Set(1, 0, 5)
	if _, err := NewBandCholesky(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	// A negative diagonal fails immediately.
	neg := NewSymBand(3, 0)
	neg.Set(0, 0, -2)
	if _, err := NewBandCholesky(neg); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestBandCholeskySolveShapePanics(t *testing.T) {
	a := randomSPDBand(6, 2, rand.New(rand.NewSource(1)))
	bc, err := NewBandCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bc.Solve(make([]float64, 5))
}

func TestBandCholeskySolveIntoAliasingBlocked(t *testing.T) {
	// bw ≥ 8 exercises the blocked four-row sweeps — the path the thermal
	// hot loop runs aliased (SolveInto(z, z)) on every real grid.
	rng := rand.New(rand.NewSource(17))
	a := randomSPDBand(45, 11, rng)
	bc, err := NewBandCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 45)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := bc.Solve(b)
	inPlace := append([]float64(nil), b...)
	bc.SolveInto(inPlace, inPlace)
	for i := range want {
		if inPlace[i] != want[i] {
			t.Fatalf("aliased blocked solve diverged at %d: %v vs %v", i, inPlace[i], want[i])
		}
	}
}
