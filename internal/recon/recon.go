// Package recon implements the paper's Theorem 1: least-squares recovery of
// the K subspace coefficients from M ≥ K sensor readings, plus the
// condition-number diagnostics that drive sensor allocation and ensemble
// evaluation over whole datasets.
package recon

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/basis"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/noise"
)

// Errors returned by New and the reconstruction entry points.
var (
	// ErrTooFewSensors reports M < K (Theorem 1 requires M ≥ K).
	ErrTooFewSensors = errors.New("recon: fewer sensors than basis dimension")
	// ErrRankDeficient reports rank(Ψ̃_K) < K: the sensor set cannot observe
	// the subspace.
	ErrRankDeficient = errors.New("recon: sensing matrix is rank deficient")
	// ErrDuplicateSensor reports the same cell listed twice in a sensor set:
	// a duplicated row makes the layout silently worse-conditioned than its
	// nominal M suggests, so it is rejected up front.
	ErrDuplicateSensor = errors.New("recon: duplicate sensor index")
	// ErrBadReading reports a NaN or ±Inf sensor reading, or one beyond
	// ±basis.MaxAbsReading; least squares would not fail on it, it would
	// silently poison the whole reconstructed map.
	ErrBadReading = errors.New("recon: non-finite or out-of-range sensor reading")
)

// Reconstructor solves min_α ‖x_S − Ψ̃_K α‖₂ and synthesizes x̃ = mean + Ψ_K α̂.
// It is safe for concurrent use after construction: the factorization and
// the folded operator are read-only and per-call scratch comes from an
// internal pool, so any number of goroutines may call
// Reconstruct/ReconstructInto on one shared instance.
type Reconstructor struct {
	b       *basis.Basis
	k       int
	sensors []int

	psiTilde *mat.Matrix // M×K rows of Ψ_K at sensor locations
	qr       *mat.QR
	meanS    []float64 // mean map sampled at the sensors

	op     *mat.Matrix // N×M folded operator R = Ψ_K (Ψ̃_K)⁺
	opBias []float64   // N: c = mean − R·mean_S, so x̃ = c + R·x_S

	resid *mat.Matrix // M×M residual projector P = I_M − Ψ̃_K (Ψ̃_K)⁺
	zeroM []float64   // all-zero length-M bias for residual matvecs

	scratch sync.Pool // *solveScratch, reused across ReconstructInto calls
}

// solveScratch holds the per-call work buffers of one least-squares solve so
// the steady-state hot path allocates nothing.
type solveScratch struct {
	centered []float64 // M: readings minus the training mean
	work     []float64 // M: reflector-sweep workspace
}

func (r *Reconstructor) getScratch() *solveScratch {
	if sc, ok := r.scratch.Get().(*solveScratch); ok {
		return sc
	}
	return &solveScratch{
		centered: make([]float64, len(r.sensors)),
		work:     make([]float64, len(r.sensors)),
	}
}

// New builds a reconstructor for the first k basis vectors observed at the
// given sensor cell indices. It fails fast if M < K or Ψ̃_K is rank
// deficient (the preconditions of Theorem 1).
func New(b *basis.Basis, k int, sensors []int) (*Reconstructor, error) {
	return build(b, k, sensors, nil, nil, nil)
}

// RestoreWithOperator rebuilds a reconstructor from a cached least-squares
// factorization and its already-folded operator (op is the N×M matrix R,
// opBias the length-N affine term c) — the deserialization path of the
// monitor store. It performs New's full validation but refactors and folds
// nothing, so a restored reconstructor reproduces the saved one's
// ReconstructInto output bit-for-bit.
func RestoreWithOperator(b *basis.Basis, k int, sensors []int, qr *mat.QR, op *mat.Matrix, opBias []float64) (*Reconstructor, error) {
	if qr == nil {
		return nil, fmt.Errorf("recon: restore: nil factorization")
	}
	if op == nil || opBias == nil {
		return nil, fmt.Errorf("recon: restore: nil operator section")
	}
	return build(b, k, sensors, qr, op, opBias)
}

// build validates (b, k, sensors) and assembles the reconstructor, factoring
// Ψ̃_K fresh when qr is nil and adopting qr (after a shape check) otherwise.
// The folded operator is adopted from (op, opBias) when given and folded from
// the factorization otherwise.
func build(b *basis.Basis, k int, sensors []int, qr *mat.QR, op *mat.Matrix, opBias []float64) (*Reconstructor, error) {
	if k < 1 || k > b.KMax() {
		return nil, fmt.Errorf("recon: %w", basis.ErrKRange)
	}
	if len(sensors) < k {
		return nil, fmt.Errorf("%w: M=%d, K=%d", ErrTooFewSensors, len(sensors), k)
	}
	seen := make(map[int]struct{}, len(sensors))
	for _, s := range sensors {
		if s < 0 || s >= b.N() {
			return nil, fmt.Errorf("recon: sensor index %d outside [0,%d)", s, b.N())
		}
		if _, dup := seen[s]; dup {
			return nil, fmt.Errorf("%w: cell %d", ErrDuplicateSensor, s)
		}
		seen[s] = struct{}{}
	}
	psiK, err := b.PsiK(k)
	if err != nil {
		return nil, err
	}
	psiTilde := psiK.SelectRows(sensors)
	if qr == nil {
		qr = mat.NewQR(psiTilde)
	} else if qm, qn := qr.Dims(); qm != len(sensors) || qn != k {
		return nil, fmt.Errorf("recon: restore: factorization is %d×%d, want %d×%d", qm, qn, len(sensors), k)
	}
	if qr.Rank() < k {
		return nil, fmt.Errorf("%w: rank %d < K=%d", ErrRankDeficient, qr.Rank(), k)
	}
	meanS := make([]float64, len(sensors))
	for i, s := range sensors {
		meanS[i] = b.Mean[s]
	}
	pinv, err := pinvFromQR(qr)
	if err != nil {
		return nil, err
	}
	if op == nil {
		op, opBias = fold(psiK, pinv, b.Mean, meanS)
	} else if rows, cols := op.Dims(); rows != b.N() || cols != len(sensors) || len(opBias) != b.N() {
		return nil, fmt.Errorf("recon: restore: operator is %d×%d (+%d bias), want %d×%d (+%d)",
			rows, cols, len(opBias), b.N(), len(sensors), b.N())
	}
	return &Reconstructor{
		b:        b,
		k:        k,
		sensors:  append([]int(nil), sensors...),
		psiTilde: psiTilde,
		qr:       qr,
		meanS:    meanS,
		op:       op,
		opBias:   opBias,
		resid:    residualProjector(psiTilde, pinv),
		zeroM:    make([]float64, len(sensors)),
	}, nil
}

// pinvFromQR extracts the pseudoinverse (Ψ̃_K)⁺ (K×M) column-by-column from
// the cached QR factorization: column j is the least-squares solution against
// the j-th unit vector. The extraction is deterministic — the same
// factorization always yields bit-identical values — which is what makes both
// the folded operator and the residual projector reproducible across restore.
func pinvFromQR(qr *mat.QR) (*mat.Matrix, error) {
	m, k := qr.Dims()
	pinv := mat.New(k, m)
	e := make([]float64, m)
	work := make([]float64, m)
	col := make([]float64, k)
	for j := 0; j < m; j++ {
		e[j] = 1
		if err := qr.SolveInto(col, e, work); err != nil {
			return nil, fmt.Errorf("recon: pseudoinverse extraction: %w", err)
		}
		e[j] = 0
		for i, v := range col {
			pinv.Set(i, j, v)
		}
	}
	return pinv, nil
}

// fold precomputes the affine reconstruction operator of Theorem 1:
// R = Ψ_K (Ψ̃_K)⁺ (N×M) and c = mean − R·mean_S, so an estimate collapses to
// x̃ = c + R·x_S — one matvec, no per-snapshot solve. The fold is
// deterministic given the pseudoinverse, so a re-folded operator matches a
// persisted one exactly.
func fold(psiK, pinv *mat.Matrix, mean, meanS []float64) (*mat.Matrix, []float64) {
	op := mat.Mul(psiK, pinv) // N×M
	bias := mat.MulVec(op, meanS)
	for i, v := range mean {
		bias[i] = v - bias[i]
	}
	return op, bias
}

// residualProjector folds the sensor-space reprojection residual operator
// P = I_M − Ψ̃_K (Ψ̃_K)⁺ (M×M): applied to centered readings it yields the
// component the subspace cannot explain, the raw signal of model drift. It
// costs one extra M×M matvec per snapshot to apply — negligible next to the
// N×M reconstruction.
func residualProjector(psiTilde, pinv *mat.Matrix) *mat.Matrix {
	m := psiTilde.Rows()
	proj := mat.Mul(psiTilde, pinv) // Ψ̃_K (Ψ̃_K)⁺, M×M
	out := mat.New(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := -proj.At(i, j)
			if i == j {
				v++
			}
			out.Set(i, j, v)
		}
	}
	return out
}

// K returns the subspace dimension.
func (r *Reconstructor) K() int { return r.k }

// M returns the number of sensors.
func (r *Reconstructor) M() int { return len(r.sensors) }

// N returns the number of cells per reconstructed map.
func (r *Reconstructor) N() int { return r.b.N() }

// Sensors returns a copy of the sensor cell indices.
func (r *Reconstructor) Sensors() []int { return append([]int(nil), r.sensors...) }

// Basis returns the basis the reconstructor synthesizes with. Callers must
// treat it as read-only: it is shared by every estimating goroutine.
func (r *Reconstructor) Basis() *basis.Basis { return r.b }

// QR returns the cached least-squares factorization (read-only; shared by
// every estimating goroutine). Serialize it with its Factors method and
// rebuild via Restore for bit-identical estimates.
func (r *Reconstructor) QR() *mat.QR { return r.qr }

// Operator returns the folded reconstruction operator R (N×M) and its
// affine term c, satisfying x̃ = c + R·x_S. Both are read-only and shared by
// every estimating goroutine; serialize them into a v2 store record and
// rebuild via RestoreWithOperator to skip the fold on load.
func (r *Reconstructor) Operator() (*mat.Matrix, []float64) { return r.op, r.opBias }

// Cond returns the 2-norm condition number κ(Ψ̃_K) — the paper's figure of
// merit for a sensor layout (eq. (5)).
func (r *Reconstructor) Cond() (float64, error) {
	return mat.Cond(r.psiTilde)
}

// checkReadings validates the shape of a reading vector and that every
// reading is a number within ±basis.MaxAbsReading.
func (r *Reconstructor) checkReadings(xS []float64) error {
	if len(xS) != len(r.sensors) {
		return fmt.Errorf("recon: %d readings for %d sensors", len(xS), len(r.sensors))
	}
	for i, v := range xS {
		if !(math.Abs(v) <= basis.MaxAbsReading) {
			return fmt.Errorf("%w: reading %d is %v", ErrBadReading, i, v)
		}
	}
	return nil
}

// Coefficients solves the least-squares problem for the (possibly noisy)
// sensor readings xS (length M, °C) by QR back-substitution and returns α̂.
// Non-finite and out-of-range readings are rejected with ErrBadReading.
// Lifted through Basis().SynthesizeInto, α̂ is the two-stage reference the
// folded operator is pinned against.
func (r *Reconstructor) Coefficients(xS []float64) ([]float64, error) {
	if err := r.checkReadings(xS); err != nil {
		return nil, err
	}
	alpha := make([]float64, r.k)
	sc := r.getScratch()
	defer r.scratch.Put(sc)
	for i, v := range xS {
		sc.centered[i] = v - r.meanS[i]
	}
	if err := r.qr.SolveInto(alpha, sc.centered, sc.work); err != nil {
		return nil, fmt.Errorf("recon: least squares: %w", err)
	}
	return alpha, nil
}

// Reconstruct estimates the full thermal map from sensor readings
// (Theorem 1: x̃ = Ψ_K (Ψ̃_K*Ψ̃_K)⁻¹ Ψ̃_K* x_S, with the training mean
// restored), applied as the folded operator x̃ = c + R·x_S.
func (r *Reconstructor) Reconstruct(xS []float64) ([]float64, error) {
	out := make([]float64, r.b.N())
	if err := r.ReconstructInto(out, xS); err != nil {
		return nil, err
	}
	return out, nil
}

// ReconstructInto is the allocation-free form of Reconstruct: it writes the
// estimated map into dst (length N) by applying the folded operator — one
// blocked N×M matvec, zero steady-state allocations per snapshot. It agrees
// with the QR reference (Coefficients, then Basis().SynthesizeInto) to
// accumulation-order rounding, within ~1e-12 relative on realistic data; see
// the package tests for the pinned agreement.
func (r *Reconstructor) ReconstructInto(dst, xS []float64) error {
	if len(dst) != r.b.N() {
		return fmt.Errorf("recon: destination length %d != N %d", len(dst), r.b.N())
	}
	if err := r.checkReadings(xS); err != nil {
		return err
	}
	mat.MulVecBiasInto(dst, r.opBias, r.op, xS)
	return nil
}

// ResidualProjector returns the M×M sensor-space residual projector
// P = I_M − Ψ̃_K(Ψ̃_K)⁺ (read-only; shared by every estimating goroutine).
// P·(x_S − mean_S) is the component of a centered reading vector the trained
// subspace cannot reproduce — zero (to rounding) on in-distribution data,
// growing as the workload drifts away from the training ensemble.
func (r *Reconstructor) ResidualProjector() *mat.Matrix { return r.resid }

// ResidualInto computes the sensor-space reprojection residual of one reading
// vector: it writes the per-sensor residual P·(x_S − mean_S) into dst (length
// M) and returns the normalized residual norm ‖P·(x_S − mean_S)‖ / ‖x_S −
// mean_S‖ ∈ [0, 1] — the drift statistic. Readings exactly at the training
// mean score 0. Like ReconstructInto it is allocation-free in steady state
// and safe for concurrent use.
func (r *Reconstructor) ResidualInto(dst, xS []float64) (float64, error) {
	m := len(r.sensors)
	if len(dst) != m {
		return 0, fmt.Errorf("recon: residual destination length %d != M %d", len(dst), m)
	}
	if err := r.checkReadings(xS); err != nil {
		return 0, err
	}
	sc := r.getScratch()
	var denom float64
	for i, v := range xS {
		c := v - r.meanS[i]
		sc.centered[i] = c
		denom += c * c
	}
	mat.MulVecBiasInto(dst, r.zeroM, r.resid, sc.centered)
	r.scratch.Put(sc)
	if denom == 0 {
		return 0, nil
	}
	var num float64
	for _, v := range dst {
		num += v * v
	}
	return math.Sqrt(num / denom), nil
}

// ResidualStats scores a whole batch of reading vectors in one pass with
// one scratch checkout: it zeroes energy (length M), accumulates each
// scored row's squared per-sensor residual into it, and returns the mean
// normalized residual norm over the rows it scored plus that count. Rows
// that fail validation (wrong length, non-finite, out of range) are
// skipped rather than failing the batch — this is the serving hot path's
// drift scorer, and a malformed row has already produced its client-facing
// error elsewhere.
func (r *Reconstructor) ResidualStats(energy []float64, rows [][]float64) (meanRho float64, n int, err error) {
	m := len(r.sensors)
	if len(energy) != m {
		return 0, 0, fmt.Errorf("recon: energy length %d != M %d", len(energy), m)
	}
	for i := range energy {
		energy[i] = 0
	}
	sc := r.getScratch()
	defer r.scratch.Put(sc)
	var sumRho float64
	for _, xS := range rows {
		if r.checkReadings(xS) != nil {
			continue
		}
		var denom float64
		for i, v := range xS {
			c := v - r.meanS[i]
			sc.centered[i] = c
			denom += c * c
		}
		mat.MulVecBiasInto(sc.work, r.zeroM, r.resid, sc.centered)
		var num float64
		for i, v := range sc.work {
			num += v * v
			energy[i] += v * v
		}
		if denom > 0 {
			sumRho += math.Sqrt(num / denom)
		}
		n++
	}
	if n > 0 {
		meanRho = sumRho / float64(n)
	}
	return meanRho, n, nil
}

// ResidualStatsFromEstimates is ResidualStats for a batch whose
// reconstructions are already in hand: because the least-squares estimate
// sampled at the sensors is the orthogonal projection of the centered
// readings onto the sensing subspace (x̂_S = Ψ̃_K·α + mean_S with
// α = (Ψ̃_K)⁺(x_S − mean_S)), the per-sensor residual P·(x_S − mean_S)
// equals x_S − x̂_S exactly — M subtractions per row instead of an M×M
// matvec, which makes drift scoring nearly free on the serving hot path.
// maps[i] is the reconstructed full map for rows[i]; rows that fail
// validation are skipped like ResidualStats does.
func (r *Reconstructor) ResidualStatsFromEstimates(energy []float64, rows, maps [][]float64) (meanRho float64, n int, err error) {
	m := len(r.sensors)
	if len(energy) != m {
		return 0, 0, fmt.Errorf("recon: energy length %d != M %d", len(energy), m)
	}
	if len(rows) != len(maps) {
		return 0, 0, fmt.Errorf("recon: %d rows with %d maps", len(rows), len(maps))
	}
	for i := range energy {
		energy[i] = 0
	}
	var sumRho float64
	for j, xS := range rows {
		x := maps[j]
		if len(xS) != m || len(x) != r.b.N() {
			continue
		}
		var num, denom float64
		bad := false
		for i, v := range xS {
			c := v - r.meanS[i]
			denom += c * c
			d := v - x[r.sensors[i]]
			num += d * d
			energy[i] += d * d
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad = true
				break
			}
		}
		if bad {
			// Roll back the partial accumulation; re-zeroing is cheaper than
			// branching per sensor on the (never-taken) hot path.
			for i := range energy {
				energy[i] = 0
			}
			return r.ResidualStats(energy, rows)
		}
		if denom > 0 {
			sumRho += math.Sqrt(num / denom)
		}
		n++
	}
	if n > 0 {
		meanRho = sumRho / float64(n)
	}
	return meanRho, n, nil
}

// Sample extracts the sensor readings from a full map.
func (r *Reconstructor) Sample(x []float64) []float64 {
	out := make([]float64, len(r.sensors))
	for i, s := range r.sensors {
		out[i] = x[s]
	}
	return out
}

// EvalConfig controls Evaluate.
type EvalConfig struct {
	// SNRdB, if non-zero (or NoisePresent), corrupts each sensor vector with
	// AWGN at this SNR (paper definition, per map). Use math.Inf(1) or leave
	// NoisePresent false for noiseless evaluation.
	SNRdB        float64
	NoisePresent bool
	Seed         int64
}

// Result summarizes an ensemble evaluation.
type Result struct {
	MSE    float64 // 1/(TN) ΣΣ (x−x̃)²  [°C²]
	MaxSq  float64 // max (x−x̃)²        [°C²]
	MaxAbs float64 // √MaxSq             [°C]
	Cond   float64 // κ(Ψ̃_K)
	K, M   int
}

// Evaluate reconstructs every map in ds through r and accumulates the
// paper's MSE and MAX metrics, optionally corrupting the sensor readings
// with AWGN.
func Evaluate(r *Reconstructor, ds *dataset.Dataset, cfg EvalConfig) (Result, error) {
	var ens metrics.Ensemble
	rng := rand.New(rand.NewSource(cfg.Seed))
	for j := 0; j < ds.T(); j++ {
		x := ds.Map(j)
		xS := r.Sample(x)
		if cfg.NoisePresent {
			// The paper defines SNR = ‖x‖²/‖w‖² on *zero-mean* thermal maps
			// (Sec. 3 works with centered vectors throughout), so the noise
			// power is scaled against the centered readings, not the ~70 °C
			// absolute values.
			centered := mat.SubVec(xS, r.meanS)
			w := noise.AtSNR(rng, centered, metrics.FromDB(cfg.SNRdB))
			xS = mat.AddVec(xS, w)
		}
		rec, err := r.Reconstruct(xS)
		if err != nil {
			return Result{}, fmt.Errorf("recon: map %d: %w", j, err)
		}
		ens.Add(x, rec)
	}
	cond, err := r.Cond()
	if err != nil {
		return Result{}, err
	}
	return Result{
		MSE:    ens.MSE(),
		MaxSq:  ens.MaxSq(),
		MaxAbs: ens.MaxAbs(),
		Cond:   cond,
		K:      r.k,
		M:      len(r.sensors),
	}, nil
}

// EvaluateApproximation measures the pure subspace approximation error
// (Fig. 3(a)): project every map onto the first k basis vectors and compare,
// with no sensing involved.
func EvaluateApproximation(b *basis.Basis, ds *dataset.Dataset, k int) (Result, error) {
	var ens metrics.Ensemble
	for j := 0; j < ds.T(); j++ {
		x := ds.Map(j)
		ap, err := b.Approximate(x, k)
		if err != nil {
			return Result{}, err
		}
		ens.Add(x, ap)
	}
	return Result{MSE: ens.MSE(), MaxSq: ens.MaxSq(), MaxAbs: ens.MaxAbs(), K: k}, nil
}
