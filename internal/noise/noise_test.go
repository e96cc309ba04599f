package noise

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func TestAWGNStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := AWGN(rng, 100000, 2.0)
	var mean, varsum float64
	for _, v := range w {
		mean += v
	}
	mean /= float64(len(w))
	for _, v := range w {
		varsum += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(varsum / float64(len(w)))
	if math.Abs(mean) > 0.05 || math.Abs(sd-2) > 0.05 {
		t.Fatalf("AWGN mean %v sd %v, want 0/2", mean, sd)
	}
}

func TestAtSNRExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 64)
	for i := range x {
		x[i] = 50 + 10*rng.NormFloat64()
	}
	for _, snrDB := range []float64{5, 15, 30} {
		w := AtSNR(rng, x, math.Pow(10, snrDB/10))
		got := metrics.DB(metrics.SNR(x, w))
		if math.Abs(got-snrDB) > 1e-9 {
			t.Fatalf("achieved SNR %v dB, want %v", got, snrDB)
		}
	}
}

func TestAtSNRZeroSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := AtSNR(rng, make([]float64, 10), 100)
	for _, v := range w {
		if v != 0 {
			t.Fatal("zero signal must yield zero noise")
		}
	}
}

func TestAtSNRInfiniteSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := AtSNR(rng, []float64{1, 2, 3}, math.Inf(1))
	for _, v := range w {
		if v != 0 {
			t.Fatal("infinite SNR must yield zero noise")
		}
	}
}

func TestDeterministicGivenRNG(t *testing.T) {
	x := []float64{5, 6, 7}
	w1 := AtSNR(rand.New(rand.NewSource(9)), x, 10)
	w2 := AtSNR(rand.New(rand.NewSource(9)), x, 10)
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("same seed produced different noise")
		}
	}
}

// Property: achieved SNR equals the target for random signals and SNRs.
func TestAtSNRTargetProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()*20 + 60
		}
		snr := math.Pow(10, (r.Float64()*40-5)/10)
		w := AtSNR(r, x, snr)
		return math.Abs(metrics.SNR(x, w)/snr-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}
