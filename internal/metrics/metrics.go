// Package metrics implements the paper's two figures of merit — ensemble MSE
// and worst-case (MAX) error — plus the SNR helpers used by the noise
// experiments.
package metrics

import (
	"fmt"
	"math"
)

// MaxSqErr returns the largest squared per-cell error (the paper's MAX).
func MaxSqErr(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: length mismatch %d vs %d", len(a), len(b)))
	}
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if d*d > m {
			m = d * d
		}
	}
	return m
}

// MaxAbsErr returns the largest absolute per-cell error in °C (√MAX) — the
// number behind claims like "within 1 °C".
func MaxAbsErr(a, b []float64) float64 {
	return math.Sqrt(MaxSqErr(a, b))
}

// Ensemble accumulates MSE/MAX over a set of map pairs, mirroring the
// paper's averages over all T maps.
type Ensemble struct {
	sumSq   float64 // Σ over maps and cells of squared error
	cells   int     // total cells accumulated
	maxSq   float64
	numMaps int
}

// Add accumulates one original/estimate pair.
func (e *Ensemble) Add(original, estimate []float64) {
	if len(original) != len(estimate) {
		panic(fmt.Sprintf("metrics: length mismatch %d vs %d", len(original), len(estimate)))
	}
	for i := range original {
		d := original[i] - estimate[i]
		sq := d * d
		e.sumSq += sq
		if sq > e.maxSq {
			e.maxSq = sq
		}
	}
	e.cells += len(original)
	e.numMaps++
}

// MSE returns the ensemble mean squared error (1/(TN)·ΣΣ|x−x̂|², Sec. 4).
func (e *Ensemble) MSE() float64 {
	if e.cells == 0 {
		return 0
	}
	return e.sumSq / float64(e.cells)
}

// MaxSq returns the ensemble MAX (max over maps and cells of squared error).
func (e *Ensemble) MaxSq() float64 { return e.maxSq }

// MaxAbs returns √MAX in °C.
func (e *Ensemble) MaxAbs() float64 { return math.Sqrt(e.maxSq) }

// DB converts a linear power ratio to decibels.
func DB(ratio float64) float64 { return 10 * math.Log10(ratio) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// SNR returns the paper's signal-to-noise ratio ‖x‖²/‖w‖² (linear).
// It is +Inf for zero noise.
func SNR(signal, noise []float64) float64 {
	var s, n float64
	for _, v := range signal {
		s += v * v
	}
	for _, v := range noise {
		n += v * v
	}
	if n == 0 {
		return math.Inf(1)
	}
	return s / n
}
