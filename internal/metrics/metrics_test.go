package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mse is the per-cell MSE of one map pair (Σ|a−b|²/N), as the ensemble
// accumulates it.
func mse(a, b []float64) float64 {
	var e Ensemble
	e.Add(a, b)
	return e.MSE()
}

func TestMSEKnown(t *testing.T) {
	got := mse([]float64{1, 2, 3}, []float64{1, 3, 5})
	if math.Abs(got-(0+1+4)/3.0) > 1e-14 {
		t.Fatalf("MSE = %v", got)
	}
}

func TestMSEZeroForIdentical(t *testing.T) {
	x := []float64{4, 5, 6}
	if mse(x, x) != 0 {
		t.Fatal("MSE of identical maps must be 0")
	}
}

func TestMSEEmpty(t *testing.T) {
	if mse(nil, nil) != 0 {
		t.Fatal("MSE of empty should be 0")
	}
}

func TestMSEMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mse([]float64{1}, []float64{1, 2})
}

func TestMaxSqAndAbs(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, -3, 2}
	if MaxSqErr(a, b) != 9 {
		t.Fatalf("MaxSq = %v, want 9", MaxSqErr(a, b))
	}
	if MaxAbsErr(a, b) != 3 {
		t.Fatalf("MaxAbs = %v, want 3", MaxAbsErr(a, b))
	}
}

func TestEnsembleAccumulation(t *testing.T) {
	var e Ensemble
	e.Add([]float64{0, 0}, []float64{1, 0})  // sq errors 1, 0
	e.Add([]float64{0, 0}, []float64{0, -2}) // sq errors 0, 4
	if e.numMaps != 2 {
		t.Fatalf("Maps = %d", e.numMaps)
	}
	if math.Abs(e.MSE()-5.0/4) > 1e-14 {
		t.Fatalf("ensemble MSE = %v, want 1.25", e.MSE())
	}
	if e.MaxSq() != 4 || e.MaxAbs() != 2 {
		t.Fatalf("MaxSq=%v MaxAbs=%v", e.MaxSq(), e.MaxAbs())
	}
}

func TestEnsembleEmpty(t *testing.T) {
	var e Ensemble
	if e.MSE() != 0 || e.MaxSq() != 0 {
		t.Fatal("empty ensemble should be zero")
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-10, 0, 15, 30} {
		if math.Abs(DB(FromDB(db))-db) > 1e-12 {
			t.Fatalf("dB round trip failed at %v", db)
		}
	}
	if DB(100) != 20 {
		t.Fatalf("DB(100) = %v, want 20", DB(100))
	}
}

func TestSNRDefinition(t *testing.T) {
	sig := []float64{3, 4} // ‖x‖² = 25
	n := []float64{1, 2}   // ‖w‖² = 5
	if math.Abs(SNR(sig, n)-5) > 1e-14 {
		t.Fatalf("SNR = %v, want 5", SNR(sig, n))
	}
	if !math.IsInf(SNR(sig, []float64{0, 0}), 1) {
		t.Fatal("zero noise should give +Inf SNR")
	}
}

// Property: ensemble MSE equals the map-size-weighted mean of per-map MSEs
// (with equal map sizes, the plain mean).
func TestEnsembleMSEConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		maps := 1 + r.Intn(10)
		var e Ensemble
		var sum float64
		for m := 0; m < maps; m++ {
			a := make([]float64, n)
			b := make([]float64, n)
			for i := range a {
				a[i] = r.NormFloat64()
				b[i] = r.NormFloat64()
			}
			e.Add(a, b)
			sum += mse(a, b)
		}
		return math.Abs(e.MSE()-sum/float64(maps)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(60))}); err != nil {
		t.Fatal(err)
	}
}
