package eigenmaps

import (
	"math"
	"testing"
)

// The facade serves one path, the folded operator, and it agrees with the
// QR reference (least-squares coefficients, then the basis lift) to
// accumulation-order rounding; < 1e-12 relative is the pinned bound (see
// internal/core's agreement suite for the argument).
func TestEstimateAgreesWithQRReference(t *testing.T) {
	mon := trainedMonitor(t)
	rec := mon.mon.Reconstructor()
	readings := mon.Sample(make([]float64, mon.N()))
	for i := range readings {
		readings[i] = 60 + float64(i)
	}
	got, err := mon.Estimate(readings)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := rec.Coefficients(readings)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, mon.N())
	rec.Basis().SynthesizeInto(want, alpha)
	var diff, scale float64
	for i := range want {
		diff = math.Max(diff, math.Abs(got[i]-want[i]))
		scale = math.Max(scale, math.Abs(want[i]))
	}
	if d := diff / math.Max(scale, 1); d > 1e-12 {
		t.Fatalf("operator and QR reference disagree by %g relative", d)
	}
}
