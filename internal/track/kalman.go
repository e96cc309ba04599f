// Package track adds temporal filtering on top of the paper's memoryless
// least-squares reconstruction: a Kalman filter over the subspace
// coefficients, in the spirit of Zhang & Srivastava's adaptive thermal
// tracking (the paper's related work [19]). Thermal maps evolve slowly, so
// fusing the previous state with each new sensor vector suppresses
// measurement noise that per-snapshot least squares must swallow whole.
//
// State-space model, all in the K-dimensional coefficient space:
//
//	α_t = ρ·α_{t−1} + u_t,  u_t ~ N(0, Q),   Q = q·diag(λ)
//	y_t = Ψ̃_K·α_t + w_t,    w_t ~ N(0, R),   R = r·I
//
// The stationary prior of the coefficients is exactly diag(λ) — the
// eigenvalues from Proposition 1 — which the filter uses as its initial
// covariance, so the PCA training doubles as the tracker's calibration.
package track

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/basis"
	"repro/internal/mat"
)

// Config tunes the Kalman tracker.
type Config struct {
	// Rho is the AR(1) coefficient of the state dynamics in (0, 1].
	// 1 (default) is a random walk.
	Rho float64
	// ProcessScale is q: the per-step process variance as a fraction of each
	// coefficient's stationary variance λ_k. Default 0.05.
	ProcessScale float64
	// MeasurementVar is r: the per-sensor measurement noise variance [°C²].
	// Default 0.25 (0.5 °C read noise).
	MeasurementVar float64
}

func (c *Config) defaults() {
	if c.Rho == 0 {
		c.Rho = 1
	}
	if c.ProcessScale == 0 {
		c.ProcessScale = 0.05
	}
	if c.MeasurementVar == 0 {
		c.MeasurementVar = 0.25
	}
}

// Errors returned by NewKalman.
var (
	ErrBadConfig = errors.New("track: invalid configuration")
)

// Kalman is the temporal tracker. It carries filter state, so updates are
// inherently ordered; an internal mutex serializes Step/StepBatch/Reset, which
// makes the tracker safe to share between the goroutines of a streaming
// engine (each update is atomic, and interleaving order is the arrival
// order at the lock).
//
// Every intermediate of a step lives in a per-tracker workspace, so a step
// allocates nothing.
type Kalman struct {
	cfg     Config
	b       *basis.Basis
	k       int
	sensors []int

	psiK  *mat.Matrix // N×K basis Ψ_K, the maps' operator
	psiT  *mat.Matrix // M×K sensing matrix Ψ̃_K
	meanS []float64   // training mean at the sensors
	lam   []float64   // λ_0..λ_{K-1} floored at 1e-12, the stationary covariance

	mu    sync.Mutex
	alpha []float64   // state estimate (K)
	p     *mat.Matrix // state covariance (K×K)
	steps int
	ws    workspace
}

// workspace is one step's scratch: every intermediate of the predict/update
// cycle, overwritten each step under kf.mu, and the α of each step of a
// block whose maps are not yet written.
type workspace struct {
	pMinus *mat.Matrix  // P⁻ (K×K)
	pht    *mat.Matrix  // P⁻Ψ̃ᵀ (K×M)
	s      *mat.Matrix  // S = Ψ̃P⁻Ψ̃ᵀ + R (M×M), lower triangle
	chol   mat.Cholesky // S = L·Lᵀ
	gain   *mat.Matrix  // G = P⁻Ψ̃ᵀS⁻¹ (K×M)
	iMinus *mat.Matrix  // I − GΨ̃ (K×K)
	innov  []float64    // innovation (M)
	upd    []float64    // G·innovation (K)
	alphas [][]float64  // α after each step of the block (mapBlock × K)
}

// mapBlock is the number of steps whose maps one batch GEMM writes: the
// eight snapshots of the AVX-512 kernel.
const mapBlock = 8

// NewKalman builds a tracker for the first k basis vectors observed at the
// given sensor cells. Unlike least squares, the filter works for any M ≥ 1
// (even M < K): unobserved directions simply stay at their prior.
func NewKalman(b *basis.Basis, k int, sensors []int, cfg Config) (*Kalman, error) {
	cfg.defaults()
	if cfg.Rho <= 0 || cfg.Rho > 1 {
		return nil, fmt.Errorf("%w: rho %v outside (0,1]", ErrBadConfig, cfg.Rho)
	}
	if cfg.ProcessScale < 0 || cfg.MeasurementVar <= 0 {
		return nil, fmt.Errorf("%w: process %v, measurement %v", ErrBadConfig, cfg.ProcessScale, cfg.MeasurementVar)
	}
	if k < 1 || k > b.KMax() {
		return nil, fmt.Errorf("track: %w", basis.ErrKRange)
	}
	if len(sensors) == 0 {
		return nil, fmt.Errorf("%w: no sensors", ErrBadConfig)
	}
	for _, s := range sensors {
		if s < 0 || s >= b.N() {
			return nil, fmt.Errorf("track: sensor %d outside [0,%d)", s, b.N())
		}
	}
	psiK, err := b.PsiK(k)
	if err != nil {
		return nil, err
	}
	m := len(sensors)
	meanS := make([]float64, m)
	for i, s := range sensors {
		meanS[i] = b.Mean[s]
	}
	lam := make([]float64, k)
	for i := range lam {
		lam[i] = b.Importance[i]
		if lam[i] <= 0 {
			lam[i] = 1e-12
		}
	}
	kf := &Kalman{
		cfg:     cfg,
		b:       b,
		k:       k,
		sensors: append([]int(nil), sensors...),
		psiK:    psiK,
		psiT:    psiK.SelectRows(sensors),
		meanS:   meanS,
		lam:     lam,
		alpha:   make([]float64, k),
		p:       mat.New(k, k),
		ws: workspace{
			pMinus: mat.New(k, k),
			pht:    mat.New(k, m),
			s:      mat.New(m, m),
			gain:   mat.New(k, m),
			iMinus: mat.New(k, k),
			innov:  make([]float64, m),
			upd:    make([]float64, k),
			alphas: make([][]float64, mapBlock),
		},
	}
	for i := range kf.ws.alphas {
		kf.ws.alphas[i] = make([]float64, k)
	}
	kf.Reset()
	return kf, nil
}

// Reset returns the filter to its stationary prior (α = 0 — the mean map —
// with covariance diag(λ)).
func (kf *Kalman) Reset() {
	kf.mu.Lock()
	defer kf.mu.Unlock()
	clear(kf.alpha)
	clear(kf.p.Data())
	for i, l := range kf.lam {
		kf.p.Set(i, i, l)
	}
	kf.steps = 0
}

// Sensors returns a copy of the sensor cells.
func (kf *Kalman) Sensors() []int { return append([]int(nil), kf.sensors...) }

// Sample extracts the tracker's sensor readings from a full map.
func (kf *Kalman) Sample(x []float64) []float64 {
	out := make([]float64, len(kf.sensors))
	for i, s := range kf.sensors {
		out[i] = x[s]
	}
	return out
}

// Step runs one predict/update cycle on the sensor readings (°C) and
// returns the current full-map estimate: a batch of one.
func (kf *Kalman) Step(readings []float64) ([]float64, error) {
	if err := kf.checkReadings(readings); err != nil {
		return nil, err
	}
	out := make([]float64, kf.b.N())
	kf.mu.Lock()
	defer kf.mu.Unlock()
	if _, err := kf.stepBatch([][]float64{out}, [][]float64{readings}); err != nil {
		return nil, err
	}
	return out, nil
}

// StepBatch smooths a streamed batch: it runs one predict/update cycle per
// reading vector, in order, under a single lock acquisition, and returns the
// full-map estimate after each step. A concurrent engine can therefore fan
// independent monitors out across goroutines while each tracker still sees
// its own snapshots strictly in sequence.
//
// The whole batch is validated before the first update, so a rejected batch
// leaves the filter state untouched — a client may safely retry it without
// double-applying a valid prefix.
func (kf *Kalman) StepBatch(readings [][]float64) ([][]float64, error) {
	out := make([][]float64, len(readings))
	for i := range out {
		out[i] = make([]float64, kf.b.N())
	}
	if _, _, err := kf.StepBatchInto(out, readings); err != nil {
		return nil, err
	}
	return out, nil
}

// StepBatchInto is the allocation-free form of StepBatch: it writes the
// full-map estimate after step i into dst[i], which must have length N, for
// len(readings) == len(dst) steps. It returns the tracker's step count and
// tr(P) right after this batch's last step, read in the same critical
// section as the updates, so concurrent batches on one tracker each report
// their own position in the sequence. The batch is validated whole before
// the first update, as in StepBatch.
func (kf *Kalman) StepBatchInto(dst, readings [][]float64) (steps int, uncertainty float64, err error) {
	if len(dst) != len(readings) {
		panic(fmt.Sprintf("track: %d destination maps for %d reading vectors", len(dst), len(readings)))
	}
	n := kf.b.N()
	for _, d := range dst {
		if len(d) != n {
			panic(fmt.Sprintf("track: destination map length %d != N %d", len(d), n))
		}
	}
	for i, y := range readings {
		if err := kf.checkReadings(y); err != nil {
			return 0, 0, fmt.Errorf("track: batch step %d: %w", i, err)
		}
	}
	kf.mu.Lock()
	defer kf.mu.Unlock()
	if i, err := kf.stepBatch(dst, readings); err != nil {
		return 0, 0, fmt.Errorf("track: batch step %d: %w", i, err)
	}
	return kf.steps, kf.traceLocked(), nil
}

// checkReadings validates one reading vector's shape and that every
// reading is a number within ±basis.MaxAbsReading: one reading beyond it
// would overflow the filter's state, and every later step with it.
func (kf *Kalman) checkReadings(readings []float64) error {
	if len(readings) != len(kf.sensors) {
		return fmt.Errorf("track: %d readings for %d sensors", len(readings), len(kf.sensors))
	}
	for i, v := range readings {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("track: non-finite reading %d (%v)", i, v)
		}
		if math.Abs(v) > basis.MaxAbsReading {
			return fmt.Errorf("track: reading %d (%v) beyond ±%g °C", i, v, basis.MaxAbsReading)
		}
	}
	return nil
}

// stepBatch runs one predict/update cycle per validated reading vector, in
// order, and writes the full-map estimate after step i into dst[i]; the
// caller must hold kf.mu. It filters a block of up to mapBlock steps,
// keeping each step's α, then writes the block's maps mean + Ψ_K·α in one
// seeded batch GEMM, which sums in basis.SynthesizeInto's order. When a
// step fails, the maps of the steps before it are still written, and
// stepBatch returns its index and error.
func (kf *Kalman) stepBatch(dst, readings [][]float64) (int, error) {
	alphas := kf.ws.alphas
	for t := 0; t < len(readings); t += mapBlock {
		n := min(mapBlock, len(readings)-t)
		for i, y := range readings[t : t+n] {
			if err := kf.update(y); err != nil {
				mat.MulVecSeededBatchInto(dst[t:t+i], kf.b.Mean, kf.psiK, alphas[:i])
				return t + i, err
			}
			copy(alphas[i], kf.alpha)
		}
		mat.MulVecSeededBatchInto(dst[t:t+n], kf.b.Mean, kf.psiK, alphas[:n])
	}
	return 0, nil
}

// update runs one predict/update cycle on validated readings, leaving α
// and P in kf.alpha and kf.p; the caller must hold kf.mu. Every entry of
// every intermediate gets the operations, in the order, of the reference
// step that built each one with the allocating kernels, so α and P keep
// its bits (TestStepBatchIntoBitIdenticalToReference).
func (kf *Kalman) update(readings []float64) error {
	k, m := kf.k, len(kf.sensors)
	ws := &kf.ws
	rho := kf.cfg.Rho

	// Predict: α⁻ = ρ·α, P⁻ = ρ²·P + Q.
	for i := range kf.alpha {
		kf.alpha[i] *= rho
	}
	copy(ws.pMinus.Data(), kf.p.Data())
	ws.pMinus.Scale(rho * rho)
	for i, l := range kf.lam {
		ws.pMinus.Add(i, i, kf.cfg.ProcessScale*l)
	}

	// Innovation on centered readings: (y − mean) − Ψ̃α⁻.
	mat.MulVecInto(ws.innov, kf.psiT, kf.alpha)
	for i, v := range ws.innov {
		ws.innov[i] = (readings[i] - kf.meanS[i]) - v
	}

	// S = Ψ̃ P⁻ Ψ̃ᵀ + R, its lower triangle only: Factorize reads no other
	// entry.
	mat.MulTBInto(ws.pht, ws.pMinus, kf.psiT) // K×M: P⁻ Ψ̃ᵀ
	mat.MulLowerInto(ws.s, kf.psiT, ws.pht)   // M×M
	for i := 0; i < m; i++ {
		ws.s.Add(i, i, kf.cfg.MeasurementVar)
	}
	if err := ws.chol.Factorize(ws.s); err != nil {
		return fmt.Errorf("track: innovation covariance not SPD: %w", err)
	}
	// Gain G = P⁻ Ψ̃ᵀ S⁻¹: every row gᵢ = S⁻¹(P⁻Ψ̃ᵀ)ᵢ, in one solve.
	ws.chol.SolveRowsInto(ws.gain, ws.pht)

	// Update: α += G·innov, P = (I − GΨ̃) P⁻ (Joseph-free form; S is SPD and
	// the gain exact, so the plain form stays symmetric within round-off,
	// and is re-symmetrized below).
	mat.MulVecInto(ws.upd, ws.gain, ws.innov)
	for i, v := range ws.upd {
		kf.alpha[i] += v
	}
	mat.MulInto(ws.iMinus, ws.gain, kf.psiT) // K×K: GΨ̃, then I − GΨ̃ in place
	im := ws.iMinus.Data()
	for r := 0; r < k; r++ {
		row := im[r*k : (r+1)*k]
		d := row[r]
		for c, v := range row {
			row[c] = 0 - v // not −v: I's +0 minus a +0 is +0
		}
		row[r] = 1 - d
	}
	mat.MulInto(kf.p, ws.iMinus, ws.pMinus)
	// Re-symmetrize to stop round-off drift.
	p := kf.p.Data()
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v := 0.5 * (p[i*k+j] + p[j*k+i])
			p[i*k+j] = v
			p[j*k+i] = v
		}
	}
	kf.steps++
	return nil
}

// CovarianceTrace returns tr(P) — a scalar uncertainty summary that must
// shrink as measurements accumulate on a static scene.
func (kf *Kalman) CovarianceTrace() float64 {
	kf.mu.Lock()
	defer kf.mu.Unlock()
	return kf.traceLocked()
}

// traceLocked is tr(P), summed in index order; the caller holds kf.mu.
func (kf *Kalman) traceLocked() float64 {
	var tr float64
	for i := 0; i < kf.k; i++ {
		tr += kf.p.At(i, i)
	}
	return tr
}
