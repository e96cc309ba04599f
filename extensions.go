package eigenmaps

import (
	"math/rand"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/noise"
	"repro/internal/track"
)

// This file exposes the repository's extensions beyond the paper:
// temporal (Kalman) tracking of the subspace coefficients, a realistic
// sensor error model, and the hot-spot analyses a dynamic thermal manager
// consumes.

// TrackerOptions tune NewTracker.
type TrackerOptions struct {
	// Rho is the AR(1) state dynamics coefficient in (0,1]; 1 (default) is a
	// random walk.
	Rho float64
	// ProcessScale is the per-step process variance as a fraction of each
	// coefficient's stationary variance. Default 0.05.
	ProcessScale float64
	// MeasurementVarC2 is the per-sensor measurement noise variance [°C²].
	// Default 0.25.
	MeasurementVarC2 float64
}

// Tracker is a temporal estimator: unlike Monitor's memoryless least
// squares, it fuses each new reading vector with the filtered history,
// suppressing sensor noise on slowly varying thermal scenes. It also works
// with fewer sensors than subspace dimensions (M < K), where plain least
// squares is undefined.
type Tracker struct {
	kf *track.Kalman
}

// NewTracker builds a Kalman tracker over the first k basis vectors
// observed at the given sensor cells.
func (m *Model) NewTracker(k int, sensors []int, opt TrackerOptions) (*Tracker, error) {
	kf, err := track.NewKalman(m.m.Basis, k, sensors, track.Config{
		Rho:            opt.Rho,
		ProcessScale:   opt.ProcessScale,
		MeasurementVar: opt.MeasurementVarC2,
	})
	if err != nil {
		return nil, err
	}
	return &Tracker{kf: kf}, nil
}

// Step fuses one reading vector (°C) and returns the current full-map
// estimate. The tracker serializes concurrent callers internally, so one
// tracker can sit behind a multi-goroutine request loop.
func (t *Tracker) Step(readings []float64) ([]float64, error) { return t.kf.Step(readings) }

// StepBatch smooths a streamed batch of reading vectors in arrival order
// under one lock acquisition, returning the full-map estimate after each
// step. This is the temporal (Kalman) counterpart of Monitor.EstimateBatch:
// batches from different trackers can be processed concurrently while each
// tracker's own snapshots stay strictly ordered.
func (t *Tracker) StepBatch(readings [][]float64) ([][]float64, error) {
	return t.kf.StepBatch(readings)
}

// Sample extracts the tracker's sensor readings from a full map.
func (t *Tracker) Sample(x []float64) []float64 { return t.kf.Sample(x) }

// Sensors returns the monitored cells.
func (t *Tracker) Sensors() []int { return t.kf.Sensors() }

// Uncertainty returns the trace of the state covariance — shrinks as
// measurements accumulate.
func (t *Tracker) Uncertainty() float64 { return t.kf.CovarianceTrace() }

// SensorModel describes a realistic on-chip temperature sensor error budget
// (read noise, ADC quantization, frozen per-sensor calibration offset/gain).
type SensorModel struct {
	ReadNoiseC    float64 // per-sample Gaussian noise σ [°C]
	QuantizationC float64 // ADC step [°C], 0 = none
	OffsetSigmaC  float64 // per-sensor fixed offset σ [°C]
	GainSigma     float64 // per-sensor relative gain error σ
}

// TypicalSensorModel returns a representative error budget: 0.3 °C read
// noise, 0.5 °C quantization, 1 °C offset spread, 1% gain spread.
func TypicalSensorModel() SensorModel {
	m := noise.TypicalSensor()
	return SensorModel{
		ReadNoiseC:    m.ReadNoiseC,
		QuantizationC: m.QuantizationC,
		OffsetSigmaC:  m.OffsetSigmaC,
		GainSigma:     m.GainSigma,
	}
}

// SensorBank is a set of manufactured sensors with frozen calibration
// errors.
type SensorBank struct {
	s *noise.Sensors
}

// Manufacture draws n sensors' calibration errors once from seed.
func (m SensorModel) Manufacture(n int, seed int64) *SensorBank {
	im := noise.SensorModel{
		ReadNoiseC:    m.ReadNoiseC,
		QuantizationC: m.QuantizationC,
		OffsetSigmaC:  m.OffsetSigmaC,
		GainSigma:     m.GainSigma,
		ReferenceC:    45,
	}
	return &SensorBank{s: im.NewSensors(n, rand.New(rand.NewSource(seed)))}
}

// Read converts true temperatures into what the sensors report.
func (b *SensorBank) Read(trueC []float64) []float64 { return b.s.Read(trueC) }

// Count returns the number of sensors in the bank.
func (b *SensorBank) Count() int { return b.s.Count() }

// ThermalReport summarizes one (reconstructed) thermal map for a dynamic
// thermal manager.
type ThermalReport struct {
	MaxC        float64  // hottest cell temperature
	MaxCell     int      // its index
	MinC        float64  // coldest cell
	MeanC       float64  // die average
	MaxGradC    float64  // largest spatial gradient [°C per cell pitch]
	MaxGradCell int      // where it occurs
	HotBlocks   []string // T1 blocks whose max exceeds the threshold, sorted
}

// AnalyzeT1 summarizes map x on the bundled T1 floorplan with the given
// hot-block threshold (°C).
func AnalyzeT1(g Grid, x []float64, hotThresholdC float64) ThermalReport {
	raster := floorplan.UltraSparcT1().Rasterize(g.internal())
	rep := hotspot.Summarize(raster, x, hotThresholdC)
	return ThermalReport{
		MaxC:        rep.MaxC,
		MaxCell:     rep.MaxCell,
		MinC:        rep.MinC,
		MeanC:       rep.MeanC,
		MaxGradC:    rep.MaxGradC,
		MaxGradCell: rep.MaxGradCell,
		HotBlocks:   rep.HotBlocks,
	}
}

// ThermalAlarm is a hysteresis threshold detector for reconstructed maximum
// temperatures.
type ThermalAlarm struct {
	a hotspot.Alarm
}

// NewThermalAlarm creates an alarm tripping at setC and releasing below
// clearC (setC must exceed clearC).
func NewThermalAlarm(setC, clearC float64) *ThermalAlarm {
	return &ThermalAlarm{a: hotspot.Alarm{Set: setC, Clear: clearC}}
}

// Update feeds the current maximum temperature; reports whether the alarm
// is active.
func (t *ThermalAlarm) Update(maxC float64) bool { return t.a.Update(maxC) }

// Active reports the alarm state.
func (t *ThermalAlarm) Active() bool { return t.a.Active() }

// Trips returns the number of trip events so far.
func (t *ThermalAlarm) Trips() int { return t.a.Trips() }
