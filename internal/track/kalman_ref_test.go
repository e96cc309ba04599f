package track

import (
	"fmt"
	"math"

	"repro/internal/basis"
	"repro/internal/mat"
)

// The Kalman step as it was before the workspace: every intermediate a fresh
// matrix from the allocating mat kernels. Its constructor, Reset and step are
// kept verbatim, renamed, as the reference the allocation-free step must
// match bit for bit (kalman_bits_test.go).

// refKalman carries the reference filter's state.
type refKalman struct {
	cfg     Config
	b       *basis.Basis
	k       int
	sensors []int

	psiT  *mat.Matrix // M×K sensing matrix Ψ̃_K
	meanS []float64   // training mean at the sensors

	alpha []float64   // state estimate (K)
	p     *mat.Matrix // state covariance (K×K)
	prior *mat.Matrix // diag(λ_0..λ_{K-1}), the stationary covariance
	steps int
}

// newRefKalman is NewKalman's construction of the reference state, without
// the validation the production constructor already applies.
func newRefKalman(b *basis.Basis, k int, sensors []int, cfg Config) *refKalman {
	cfg.defaults()
	psiK, err := b.PsiK(k)
	if err != nil {
		panic(err)
	}
	psiT := psiK.SelectRows(sensors)
	meanS := make([]float64, len(sensors))
	for i, s := range sensors {
		meanS[i] = b.Mean[s]
	}
	kf := &refKalman{
		cfg:     cfg,
		b:       b,
		k:       k,
		sensors: append([]int(nil), sensors...),
		psiT:    psiT,
		meanS:   meanS,
	}
	kf.Reset()
	return kf
}

// Reset returns the filter to its stationary prior (α = 0 — the mean map —
// with covariance diag(λ)).
func (kf *refKalman) Reset() {
	kf.alpha = make([]float64, kf.k)
	kf.prior = mat.New(kf.k, kf.k)
	for i := 0; i < kf.k; i++ {
		lam := kf.b.Importance[i]
		if lam <= 0 {
			lam = 1e-12
		}
		kf.prior.Set(i, i, lam)
	}
	kf.p = kf.prior.Clone()
	kf.steps = 0
}

// checkReadings validates one reading vector's shape and finiteness.
func (kf *refKalman) checkReadings(readings []float64) error {
	if len(readings) != len(kf.sensors) {
		return fmt.Errorf("track: %d readings for %d sensors", len(readings), len(kf.sensors))
	}
	for i, v := range readings {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("track: non-finite reading %d (%v)", i, v)
		}
	}
	return nil
}

// stepLocked is Step's body; the caller must hold kf.mu.
func (kf *refKalman) stepLocked(readings []float64) ([]float64, error) {
	if err := kf.checkReadings(readings); err != nil {
		return nil, err
	}
	k := kf.k
	m := len(kf.sensors)
	rho := kf.cfg.Rho

	// Predict: α⁻ = ρ·α, P⁻ = ρ²·P + Q.
	for i := range kf.alpha {
		kf.alpha[i] *= rho
	}
	pMinus := kf.p.Clone().Scale(rho * rho)
	for i := 0; i < k; i++ {
		pMinus.Add(i, i, kf.cfg.ProcessScale*kf.prior.At(i, i))
	}

	// Innovation on centered readings.
	centered := mat.SubVec(readings, kf.meanS)
	innov := mat.SubVec(centered, mat.MulVec(kf.psiT, kf.alpha))

	// S = Ψ̃ P⁻ Ψ̃ᵀ + R.
	pht := mat.MulTB(pMinus, kf.psiT) // K×M: P⁻ Ψ̃ᵀ
	s := mat.Mul(kf.psiT, pht)        // M×M
	for i := 0; i < m; i++ {
		s.Add(i, i, kf.cfg.MeasurementVar)
	}
	chol, err := mat.NewCholesky(s)
	if err != nil {
		return nil, fmt.Errorf("track: innovation covariance not SPD: %w", err)
	}
	// Gain G = P⁻ Ψ̃ᵀ S⁻¹, built column by column: G = (S⁻¹ (P⁻Ψ̃ᵀ)ᵀ)ᵀ.
	gain := mat.New(k, m)
	for row := 0; row < k; row++ {
		sol := chol.Solve(pht.Row(row))
		gain.SetRow(row, sol)
	}

	// Update: α += G·innov, P = (I − GΨ̃) P⁻ (Joseph-free form; S is SPD and
	// the gain exact, so the plain form stays symmetric within round-off,
	// and we re-symmetrize below).
	mat.AXPY(1, mat.MulVec(gain, innov), kf.alpha)
	gPsi := mat.Mul(gain, kf.psiT) // K×K
	iMinus := mat.Identity(k).SubMatrix(gPsi)
	kf.p = mat.Mul(iMinus, pMinus)
	// Re-symmetrize to stop round-off drift.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v := 0.5 * (kf.p.At(i, j) + kf.p.At(j, i))
			kf.p.Set(i, j, v)
			kf.p.Set(j, i, v)
		}
	}
	kf.steps++
	return kf.b.Synthesize(kf.alpha), nil
}

// CovarianceTrace returns tr(P) — a scalar uncertainty summary that must
// shrink as measurements accumulate on a static scene.
func (kf *refKalman) CovarianceTrace() float64 {
	var tr float64
	for i := 0; i < kf.k; i++ {
		tr += kf.p.At(i, i)
	}
	return tr
}
