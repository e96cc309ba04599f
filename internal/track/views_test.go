package track

import "repro/internal/mat"

// Test views of the filter state; the daemon reads the step count and
// tr(P) from the critical section that applied a batch.

// Steps returns the number of measurement updates applied since Reset.
func (kf *Kalman) Steps() int {
	kf.mu.Lock()
	defer kf.mu.Unlock()
	return kf.steps
}

// Coefficients returns a copy of the current state estimate α.
func (kf *Kalman) Coefficients() []float64 {
	kf.mu.Lock()
	defer kf.mu.Unlock()
	return mat.CopyVec(kf.alpha)
}
