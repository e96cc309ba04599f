// Package drift closes the robustness loop the paper leaves open: a trained
// monitor assumes its workload ensemble is valid forever, but the repo's own
// robustness harness measured a 40× generalization gap across workload
// families. This package watches the one signal the serving path already has
// — the sensor-space reprojection residual ‖P·(x_S − mean_S)‖/‖x_S − mean_S‖
// with P = I − Ψ̃_K(Ψ̃_K)⁺ (see recon.ResidualInto) — and turns it into an
// operational verdict per monitor: OK, DRIFTING or DEGRADED.
//
// Detection is a standard EWMA + CUSUM pair over the z-scored residual,
// calibrated against the monitor's *own* training residual distribution
// (persisted alongside the monitor in the store record): the EWMA reacts to
// sustained level shifts, the CUSUM accumulates small persistent drifts the
// EWMA smooths away. Per-sensor residual attribution separates the two
// failure modes that need different responses — global workload drift
// (residual energy spread across sensors → adapt the basis) versus a single
// faulty sensor (energy concentrated on one coordinate → exclude the sensor
// and re-fold the operator).
//
// The package also hosts the deterministic fault layer (ParseFaults,
// Injector) the load generator and the simulator corrupt readings with, so
// the whole loop is testable under CI with seeded, client-side faults.
package drift

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// State is the operational verdict for one monitor.
type State int

// Monitor drift states, ordered by severity.
const (
	// StateOK: residuals are consistent with the training distribution.
	StateOK State = iota
	// StateDrifting: residuals have shifted beyond the drift threshold —
	// estimates still serve but quality is flagged and adaptation begins.
	StateDrifting
	// StateDegraded: residuals far outside the training distribution —
	// estimates are likely unreliable until adaptation or re-training.
	StateDegraded
)

// String names the state the way the quality field and metrics spell it.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateDrifting:
		return "drifting"
	case StateDegraded:
		return "degraded"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Calibration is the training residual distribution of one monitor: the
// moments of the normalized reprojection residual over the training ensemble,
// plus per-sensor moments of the absolute residual for fault attribution.
// It is persisted in the store record so a warm-started daemon detects drift
// with the same thresholds the training run established.
type Calibration struct {
	// Mean and Std of the normalized residual norm ρ ∈ [0,1] over the
	// training ensemble. Std carries a floor (see Calibrate) so tiny training
	// residual spread cannot make the z-score explode on rounding noise.
	Mean float64
	Std  float64
	// SensorMean and SensorStd (length M) are per-sensor moments of the
	// absolute residual |r_i| over the training ensemble.
	SensorMean []float64
	SensorStd  []float64
}

// Valid reports whether the calibration is structurally usable.
func (c *Calibration) Valid() bool {
	return c != nil && c.Std > 0 && !math.IsNaN(c.Mean) && !math.IsInf(c.Mean, 0) &&
		len(c.SensorMean) == len(c.SensorStd) && len(c.SensorMean) > 0
}

// Calibrate fits a Calibration from the training ensemble's residuals:
// rhos[j] is the normalized residual norm of snapshot j and perSensor[j] the
// per-sensor residual vector (all length M). At least two snapshots are
// required. The returned Std is floored at max(5% of Mean, 1e-9) so z-scores
// stay meaningful when the training residuals are nearly constant.
func Calibrate(rhos []float64, perSensor [][]float64) (Calibration, error) {
	if len(rhos) < 2 {
		return Calibration{}, fmt.Errorf("drift: calibrate: %d residual samples, need ≥2", len(rhos))
	}
	if len(perSensor) != len(rhos) {
		return Calibration{}, fmt.Errorf("drift: calibrate: %d per-sensor rows for %d residuals", len(perSensor), len(rhos))
	}
	m := len(perSensor[0])
	if m == 0 {
		return Calibration{}, errors.New("drift: calibrate: empty per-sensor residuals")
	}
	var mean, sq float64
	for _, r := range rhos {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return Calibration{}, errors.New("drift: calibrate: non-finite residual")
		}
		mean += r
		sq += r * r
	}
	n := float64(len(rhos))
	mean /= n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	std := math.Sqrt(variance)
	if floor := 0.05 * mean; std < floor {
		std = floor
	}
	if std < 1e-9 {
		std = 1e-9
	}
	sMean := make([]float64, m)
	sSq := make([]float64, m)
	for j, row := range perSensor {
		if len(row) != m {
			return Calibration{}, fmt.Errorf("drift: calibrate: row %d has %d sensors, want %d", j, len(row), m)
		}
		for i, v := range row {
			a := math.Abs(v)
			sMean[i] += a
			sSq[i] += a * a
		}
	}
	sStd := make([]float64, m)
	for i := range sMean {
		sMean[i] /= n
		v := sSq[i]/n - sMean[i]*sMean[i]
		if v < 0 {
			v = 0
		}
		sStd[i] = math.Sqrt(v)
		if sStd[i] < 1e-12 {
			sStd[i] = 1e-12
		}
	}
	return Calibration{Mean: mean, Std: std, SensorMean: sMean, SensorStd: sStd}, nil
}

// The detector's tuning, the same for every monitor. driftZ and
// cusumH set its false-alarm rate on the calibration's z-scores.
const (
	// lambda is the EWMA smoothing weight per observed snapshot: smaller
	// smooths harder, reacting slower but with fewer false alarms.
	lambda = 0.1
	// driftZ is the EWMA z-score at which the state leaves OK.
	driftZ = 4
	// degradeZ is the EWMA z-score at which DRIFTING escalates to DEGRADED.
	degradeZ = 2 * driftZ
	// cusumK is the CUSUM slack in z-units: shifts smaller than this never
	// accumulate.
	cusumK = 0.5
	// cusumH is the CUSUM alarm threshold in accumulated z-units for the
	// DRIFTING state.
	cusumH = 12
	// faultRatio is the smoothed share of residual energy a single sensor
	// must carry, while the detector is out of OK, to be attributed as
	// faulty. Global drift spreads energy ≈ 1/M per sensor.
	faultRatio = 0.6
	// minCount is the number of snapshots that must be observed before the
	// detector leaves OK or attributes a fault.
	minCount = 16
)

// Status is a point-in-time snapshot of a detector, for stats endpoints and
// logs.
type Status struct {
	State        State
	EWMA         float64 // smoothed residual z-score
	CUSUM        float64 // accumulated one-sided drift statistic, z-units
	Observations int64   // snapshots observed since construction or Reset
	FaultySensor int     // position in the sensor vector, -1 if none
}

// Detector classifies one monitor's drift state from the stream of
// reprojection residuals. It is safe for concurrent use; Observe is cheap
// (a few multiplies per sensor) next to the reconstruction itself.
type Detector struct {
	mu     sync.Mutex
	cal    Calibration
	ewma   float64
	cusum  float64
	shares []float64 // smoothed per-sensor share of residual energy
	count  int64
	faulty int
}

// NewDetector builds a detector around a monitor's training calibration.
func NewDetector(cal Calibration) (*Detector, error) {
	if !cal.Valid() {
		return nil, errors.New("drift: invalid calibration")
	}
	return &Detector{
		cal:    cal,
		shares: make([]float64, len(cal.SensorMean)),
		faulty: -1,
	}, nil
}

// Observe folds count snapshots' worth of residual evidence into the
// detector: rho is the mean normalized residual norm over the batch and
// sensorEnergy (length M) the summed per-sensor squared residual. The daemon
// calls this once per request batch.
func (d *Detector) Observe(rho float64, sensorEnergy []float64, count int) {
	if count <= 0 || math.IsNaN(rho) || math.IsInf(rho, 0) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(sensorEnergy) != len(d.shares) {
		return
	}
	z := (rho - d.cal.Mean) / d.cal.Std
	// One EWMA step per snapshot in the batch, collapsed into a single
	// update: after count steps at a constant z the EWMA is
	// (1−λ)^count·prev + (1−(1−λ)^count)·z.
	w := 1 - math.Pow(1-lambda, float64(count))
	d.ewma = (1-w)*d.ewma + w*z
	// CUSUM accumulates the per-snapshot excess over the slack.
	d.cusum += float64(count) * (z - cusumK)
	if d.cusum < 0 {
		d.cusum = 0
	}
	var total float64
	for _, e := range sensorEnergy {
		total += e
	}
	if total > 0 {
		for i, e := range sensorEnergy {
			d.shares[i] = (1-w)*d.shares[i] + w*(e/total)
		}
	}
	d.count += int64(count)
	d.refreshLocked()
}

// refreshLocked recomputes the fault attribution; the caller holds d.mu.
func (d *Detector) refreshLocked() {
	d.faulty = -1
	if d.count < minCount || d.stateLocked() == StateOK {
		return
	}
	best, bestShare := -1, 0.0
	for i, s := range d.shares {
		if s > bestShare {
			best, bestShare = i, s
		}
	}
	if bestShare >= faultRatio {
		d.faulty = best
	}
}

// stateLocked classifies from the current statistics; the caller holds d.mu.
func (d *Detector) stateLocked() State {
	if d.count < minCount {
		return StateOK
	}
	switch {
	case d.ewma >= degradeZ:
		return StateDegraded
	case d.ewma >= driftZ || d.cusum >= cusumH:
		return StateDrifting
	}
	return StateOK
}

// State returns the current verdict.
func (d *Detector) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stateLocked()
}

// FaultySensor returns the position (in the monitor's sensor vector) of the
// sensor currently attributed as faulty, or -1. Attribution requires the
// detector to be out of OK with one sensor carrying ≥ faultRatio of the
// smoothed residual energy.
func (d *Detector) FaultySensor() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faulty
}

// Status returns a consistent snapshot of the detector.
func (d *Detector) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Status{
		State:        d.stateLocked(),
		EWMA:         d.ewma,
		CUSUM:        d.cusum,
		Observations: d.count,
		FaultySensor: d.faulty,
	}
}
