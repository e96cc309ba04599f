// Package noise models sensor measurement corruption: white Gaussian noise
// scaled to an exact target SNR under the paper's definition
// SNR = ‖x‖²/‖w‖² (Sec. 5.1), standing in for thermal noise, quantization
// and calibration inaccuracies.
package noise

import (
	"math"
	"math/rand"
)

// AWGN draws a Gaussian noise vector with per-sample standard deviation
// sigma.
func AWGN(rng *rand.Rand, n int, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = sigma * rng.NormFloat64()
	}
	return out
}

// AtSNR returns a noise vector w such that ‖x‖²/‖w‖² equals exactly the
// linear snr (the draw is renormalized, not just scaled in expectation).
// A zero signal or non-positive SNR yields zero noise.
func AtSNR(rng *rand.Rand, x []float64, snr float64) []float64 {
	w := AWGN(rng, len(x), 1)
	if snr <= 0 || math.IsInf(snr, 1) {
		return make([]float64, len(x))
	}
	var xs, ws float64
	for _, v := range x {
		xs += v * v
	}
	for _, v := range w {
		ws += v * v
	}
	if xs == 0 || ws == 0 {
		return make([]float64, len(x))
	}
	scale := math.Sqrt(xs / (snr * ws))
	for i := range w {
		w[i] *= scale
	}
	return w
}
