package noise

import (
	"fmt"
	"math"
	"math/rand"
)

// SensorModel reproduces the error budget of an on-chip thermal sensor
// (Sharifi & Rosing [15], which the paper cites for its noise sources):
//
//   - white Gaussian read noise (per sample),
//   - quantization to the ADC's step size,
//   - per-sensor calibration error: a fixed offset and gain drawn once at
//     "manufacturing" time and applied to every subsequent reading.
//
// The paper's stability claim ("stable with respect to possible temperature
// sensor calibration inaccuracies") is exercised by this model rather than
// by SNR-scaled AWGN alone.
type SensorModel struct {
	// ReadNoiseC is the standard deviation of the per-sample noise [°C].
	ReadNoiseC float64
	// QuantizationC is the ADC step [°C]; 0 disables quantization.
	// Typical on-chip sensors quantize to 0.5–1 °C.
	QuantizationC float64
	// OffsetSigmaC is the standard deviation of the per-sensor fixed offset
	// [°C] (systematic calibration error).
	OffsetSigmaC float64
	// GainSigma is the standard deviation of the per-sensor relative gain
	// error (e.g. 0.01 = ±1% slope error), applied to the temperature rise
	// above ReferenceC.
	GainSigma float64
	// ReferenceC is the calibration reference temperature; gain error
	// applies to (T − ReferenceC). Defaults to 45 °C if zero.
	ReferenceC float64
}

// Sensors is a bank of calibrated sensor instances with frozen per-sensor
// offset/gain errors.
type Sensors struct {
	model   SensorModel
	offsets []float64
	gains   []float64
	rng     *rand.Rand
}

// NewSensors manufactures n sensors under the model, drawing each sensor's
// calibration error once from rng.
func (m SensorModel) NewSensors(n int, rng *rand.Rand) *Sensors {
	if n < 0 {
		panic(fmt.Sprintf("noise: negative sensor count %d", n))
	}
	ref := m.ReferenceC
	if ref == 0 {
		m.ReferenceC = 45
	}
	s := &Sensors{
		model:   m,
		offsets: make([]float64, n),
		gains:   make([]float64, n),
		rng:     rng,
	}
	for i := 0; i < n; i++ {
		s.offsets[i] = m.OffsetSigmaC * rng.NormFloat64()
		s.gains[i] = 1 + m.GainSigma*rng.NormFloat64()
	}
	return s
}

// Count returns the number of sensors in the bank.
func (s *Sensors) Count() int { return len(s.offsets) }

// Read converts true temperatures (°C, one per sensor) into the values the
// sensors would report: gain/offset calibration error, read noise, then
// quantization.
func (s *Sensors) Read(trueC []float64) []float64 {
	if len(trueC) != len(s.offsets) {
		panic(fmt.Sprintf("noise: %d readings for %d sensors", len(trueC), len(s.offsets)))
	}
	out := make([]float64, len(trueC))
	ref := s.model.ReferenceC
	for i, t := range trueC {
		v := ref + s.gains[i]*(t-ref) + s.offsets[i]
		if s.model.ReadNoiseC > 0 {
			v += s.model.ReadNoiseC * s.rng.NormFloat64()
		}
		if q := s.model.QuantizationC; q > 0 {
			v = math.Round(v/q) * q
		}
		out[i] = v
	}
	return out
}

// TypicalSensor is a representative on-chip thermal sensor error budget:
// 0.3 °C read noise, 0.5 °C quantization, 1 °C calibration offset spread,
// 1% gain spread.
func TypicalSensor() SensorModel {
	return SensorModel{
		ReadNoiseC:    0.3,
		QuantizationC: 0.5,
		OffsetSigmaC:  1.0,
		GainSigma:     0.01,
		ReferenceC:    45,
	}
}
