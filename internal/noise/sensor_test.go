package noise

import (
	"math"
	"math/rand"
	"testing"
)

func TestSensorsPerfectModelIsIdentity(t *testing.T) {
	bank := SensorModel{}.NewSensors(4, rand.New(rand.NewSource(1)))
	in := []float64{50, 60.25, 70.5, 81}
	out := bank.Read(in)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("perfect sensor altered reading: %v -> %v", in[i], out[i])
		}
	}
}

func TestSensorsQuantization(t *testing.T) {
	bank := SensorModel{QuantizationC: 0.5, ReferenceC: 45}.NewSensors(1, rand.New(rand.NewSource(2)))
	out := bank.Read([]float64{70.26})
	if math.Mod(out[0]*2, 1) != 0 {
		t.Fatalf("reading %v not on the 0.5 °C grid", out[0])
	}
	if math.Abs(out[0]-70.26) > 0.25+1e-12 {
		t.Fatalf("quantization error %v exceeds half step", out[0]-70.26)
	}
}

func TestSensorsCalibrationFrozenPerSensor(t *testing.T) {
	m := SensorModel{OffsetSigmaC: 2, ReferenceC: 45}
	bank := m.NewSensors(3, rand.New(rand.NewSource(3)))
	a := bank.Read([]float64{60, 60, 60})
	b := bank.Read([]float64{60, 60, 60})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("calibration error must be frozen, not re-drawn")
		}
		if math.Abs(a[i]-60-bank.offsets[i]) > 1e-12 {
			t.Fatalf("reading %v does not match offset %v", a[i]-60, bank.offsets[i])
		}
	}
	// Different sensors should (almost surely) have different offsets.
	if a[0] == a[1] && a[1] == a[2] {
		t.Fatal("all offsets identical — not drawn per sensor")
	}
}

func TestSensorsGainAppliesToRise(t *testing.T) {
	m := SensorModel{GainSigma: 0.1, ReferenceC: 45}
	bank := m.NewSensors(1, rand.New(rand.NewSource(4)))
	// At the reference temperature gain error vanishes.
	atRef := bank.Read([]float64{45})
	if math.Abs(atRef[0]-45) > 1e-12 {
		t.Fatalf("gain error applied at reference: %v", atRef[0])
	}
	hot := bank.Read([]float64{65})
	wantRise := bank.gains[0] * 20
	if math.Abs((hot[0]-45)-wantRise) > 1e-12 {
		t.Fatalf("rise %v, want %v", hot[0]-45, wantRise)
	}
}

func TestSensorsReadNoiseVaries(t *testing.T) {
	m := SensorModel{ReadNoiseC: 0.5, ReferenceC: 45}
	bank := m.NewSensors(1, rand.New(rand.NewSource(5)))
	a := bank.Read([]float64{60})[0]
	b := bank.Read([]float64{60})[0]
	if a == b {
		t.Fatal("read noise must vary between samples")
	}
}

func TestSensorsLengthMismatchPanics(t *testing.T) {
	bank := SensorModel{}.NewSensors(2, rand.New(rand.NewSource(6)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bank.Read([]float64{1})
}

func TestTypicalSensorBudget(t *testing.T) {
	m := TypicalSensor()
	bank := m.NewSensors(1000, rand.New(rand.NewSource(7)))
	in := make([]float64, 1000)
	for i := range in {
		in[i] = 75
	}
	out := bank.Read(in)
	var worst float64
	for i := range out {
		if d := math.Abs(out[i] - 75); d > worst {
			worst = d
		}
	}
	// 1 °C offset sigma + 1% gain on 30 °C rise + 0.3 °C noise + 0.25 °C
	// quantization: worst case across 1000 sensors should stay within ~5 °C.
	if worst > 6 {
		t.Fatalf("typical sensor worst error %v °C", worst)
	}
	if worst < 0.5 {
		t.Fatalf("typical sensor suspiciously accurate: %v °C", worst)
	}
}
