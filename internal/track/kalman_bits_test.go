package track

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/basis"
	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/place"
)

// zeroedBasis is b with exact zeros planted where the step's zero-factor
// skips act on them: basis vector k−1 vanishes at every sensor (so its
// column of Ψ̃, its row of P⁻Ψ̃ᵀ and of the gain, and the off-diagonal
// entries of its row of I − GΨ̃ start out exactly zero, and α_{k−1} stays
// +0), one more sensor misses vector 1, and λ_3 is zero, which the prior
// floors at 1e-12. It also plants −0 mean cells: 2^(k−1) cells off the
// sensors get a −0 mean and a row of signed zeros in Ψ_K, one row per sign
// pattern of α_0..α_{k−2} and −0 in column k−1, so at every step whose
// α has no zero one of them sums only −0 products onto its −0 mean and
// its map reads −0. negZeroCells returns those cells.
func zeroedBasis(b *basis.Basis, k int, sensors []int) (z *basis.Basis, negZeroCells []int) {
	z = &basis.Basis{}
	*z = *b
	z.Psi = b.Psi.Clone()
	z.Mean = append([]float64(nil), b.Mean...)
	z.Importance = append([]float64(nil), b.Importance...)
	for _, s := range sensors {
		z.Psi.Set(s, k-1, 0)
	}
	z.Psi.Set(sensors[2], 1, 0)
	z.Importance[3] = 0
	isSensor := make(map[int]bool, len(sensors))
	for _, s := range sensors {
		isSensor[s] = true
	}
	negZero := math.Copysign(0, -1)
	for c := 0; len(negZeroCells) < 1<<(k-1); c++ {
		if isSensor[c] {
			continue
		}
		pattern := len(negZeroCells)
		for j := 0; j < k; j++ {
			// α_j·ψ is −0 when their signs differ: +0 for a negative α_j.
			v := negZero
			if j < k-1 && pattern&(1<<j) != 0 {
				v = 0
			}
			z.Psi.Set(c, j, v)
		}
		z.Mean[c] = negZero
		negZeroCells = append(negZeroCells, c)
	}
	return z, negZeroCells
}

var (
	oddOnce sync.Once
	oddDS   *dataset.Dataset
	oddB    *basis.Basis
	oddS    []int
	oddErr  error
)

// oddFixture is a die whose N is a multiple of neither 8 nor 4, so the
// maps' batch GEMM runs its row tail: t1 at 13×11 (N 143), T 120, KMax 8,
// and 10 greedy sensors for K 7.
func oddFixture(t *testing.T) (*dataset.Dataset, *basis.Basis, []int) {
	t.Helper()
	oddOnce.Do(func() {
		oddDS, oddErr = dataset.Generate(floorplan.UltraSparcT1(), dataset.GenConfig{
			Grid:      floorplan.Grid{W: 13, H: 11},
			Snapshots: 120,
			Seed:      5,
		})
		if oddErr != nil {
			return
		}
		if oddB, oddErr = basis.TrainPCA(oddDS, 8, 5); oddErr != nil {
			return
		}
		psi, err := oddB.PsiK(7)
		if err != nil {
			oddErr = err
			return
		}
		oddS, oddErr = (&place.Greedy{}).Allocate(place.Input{Psi: psi, Grid: oddDS.Grid, M: 10})
	})
	if oddErr != nil {
		t.Fatal(oddErr)
	}
	return oddDS, oddB, oddS
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestStepBatchIntoBitIdenticalToReference runs the allocation-free step and
// the reference step (kalman_ref_test.go) side by side over 2,048 noisy
// snapshots in batches of 1 to 17, with one Reset part-way, and compares
// every map, α, P, the step count and tr(P) bit for bit after each batch:
// for ρ 1 and 0.9, with more sensors than coefficients, as many, fewer, at
// the fleet's shape, on a die whose N leaves a row tail in the maps' GEMM,
// and on a basis with planted exact zeros and −0 mean cells. The batch
// sizes run every whole 8-step block of the maps' GEMM and every tail.
func TestStepBatchIntoBitIdenticalToReference(t *testing.T) {
	ds, b, sensors := fixture(t)
	fleetDS, fleetB, fleetS := fleetFixture(t)
	oddDS, oddB, oddS := oddFixture(t)
	zb, negZeroCells := zeroedBasis(b, 6, sensors)
	cases := []struct {
		name    string
		ds      *dataset.Dataset
		b       *basis.Basis
		k       int
		sensors []int
	}{
		{"M>K", ds, b, 5, sensors},
		{"M=K", ds, b, 8, sensors},
		{"M<K", ds, b, 10, sensors[:6]},
		{"fleet", fleetDS, fleetB, 8, fleetS},
		{"odd N", oddDS, oddB, 7, oddS},
		{"zeros", ds, zb, 6, sensors},
	}
	const total, resetAt = 2048, 1031
	for _, rho := range []float64{1, 0.9} {
		for _, c := range cases {
			kf, err := NewKalman(c.b, c.k, c.sensors, Config{Rho: rho})
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefKalman(c.b, c.k, c.sensors, Config{Rho: rho})
			rng := rand.New(rand.NewSource(int64(31 * c.k)))
			n := c.b.N()
			step, size, negZeros := 0, 0, 0
			for step < total {
				size = size%17 + 1
				if step < resetAt && step+size > resetAt {
					size = resetAt - step
				}
				readings := make([][]float64, size)
				for i := range readings {
					truth := c.ds.Map((step + i) % c.ds.T())
					y := make([]float64, len(c.sensors))
					for j, s := range c.sensors {
						y[j] = truth[s] + 0.5*rng.NormFloat64()
					}
					readings[i] = y
				}
				dst := make([][]float64, size)
				for i := range dst {
					dst[i] = make([]float64, n)
				}
				steps, tr, err := kf.StepBatchInto(dst, readings)
				if err != nil {
					t.Fatal(err)
				}
				for i, y := range readings {
					want, err := ref.stepLocked(y)
					if err != nil {
						t.Fatal(err)
					}
					for cell := range want {
						if !sameBits(dst[i][cell], want[cell]) {
							t.Fatalf("ρ %v %s step %d cell %d: %v, reference %v", rho, c.name, step+i, cell, dst[i][cell], want[cell])
						}
						if want[cell] == 0 && math.Signbit(want[cell]) {
							negZeros++
						}
					}
				}
				step += size
				if steps != ref.steps {
					t.Fatalf("ρ %v %s step %d: steps %d, reference %d", rho, c.name, step, steps, ref.steps)
				}
				if !sameBits(tr, ref.CovarianceTrace()) {
					t.Fatalf("ρ %v %s step %d: tr(P) %v, reference %v", rho, c.name, step, tr, ref.CovarianceTrace())
				}
				for i, a := range kf.Coefficients() {
					if !sameBits(a, ref.alpha[i]) {
						t.Fatalf("ρ %v %s step %d: α[%d] %v, reference %v", rho, c.name, step, i, a, ref.alpha[i])
					}
				}
				for i, v := range kf.p.Data() {
					if !sameBits(v, ref.p.Data()[i]) {
						t.Fatalf("ρ %v %s step %d: P[%d] %v, reference %v", rho, c.name, step, i, v, ref.p.Data()[i])
					}
				}
				if step == resetAt {
					kf.Reset()
					ref.Reset()
				}
			}
			if c.b == zb && negZeros < total {
				t.Fatalf("ρ %v %s: %d −0 map cells in %d steps, want at least one a step from the %d −0 mean cells",
					rho, c.name, negZeros, total, len(negZeroCells))
			}
		}
	}
}

// TestStepMatchesReferenceOnErrors pins the failure paths to the reference:
// a wrong-length or non-finite reading fails before any state moves, in
// Step and in StepBatchInto.
func TestStepMatchesReferenceOnErrors(t *testing.T) {
	_, b, sensors := fixture(t)
	kf, err := NewKalman(b, 6, sensors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefKalman(b, 6, sensors, Config{})
	inf := make([]float64, len(sensors))
	inf[0] = math.Inf(1)
	bad := [][]float64{make([]float64, len(sensors)-1), inf}
	for _, y := range bad {
		_, errNew := kf.Step(y)
		_, errRef := ref.stepLocked(y)
		if errNew == nil || errRef == nil || errNew.Error() != errRef.Error() {
			t.Fatalf("Step error %v, reference %v", errNew, errRef)
		}
	}
	dst := [][]float64{make([]float64, b.N())}
	if _, _, err := kf.StepBatchInto(dst, bad[1:]); err == nil {
		t.Fatal("non-finite batch accepted")
	}
	if kf.Steps() != 0 || mat.NormInf(kf.Coefficients()) != 0 {
		t.Fatalf("rejected input moved the filter: steps %d, α %v", kf.Steps(), kf.Coefficients())
	}
}

// A finite reading beyond ±basis.MaxAbsReading fails the batch before any
// state moves, so the filter's next step is bitwise a fresh filter's.
func TestStepRejectsReadingsBeyondBound(t *testing.T) {
	_, b, sensors := fixture(t)
	kf, err := NewKalman(b, 6, sensors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewKalman(b, 6, sensors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	good := make([]float64, len(sensors))
	for i := range good {
		good[i] = 50
	}
	edge := append([]float64(nil), good...)
	edge[0] = -basis.MaxAbsReading
	over := append([]float64(nil), good...)
	over[len(over)-1] = 1.7e308
	dst := [][]float64{make([]float64, b.N()), make([]float64, b.N())}
	if _, _, err := kf.StepBatchInto(dst, [][]float64{good, over}); err == nil {
		t.Fatal("a 1.7e308 reading was accepted")
	}
	if kf.Steps() != 0 || mat.NormInf(kf.Coefficients()) != 0 {
		t.Fatalf("rejected batch moved the filter: steps %d, α %v", kf.Steps(), kf.Coefficients())
	}
	if err := kf.checkReadings(edge); err != nil {
		t.Fatalf("a reading of exactly −%g rejected: %v", basis.MaxAbsReading, err)
	}
	got, _ := kf.Step(good)
	want, _ := twin.Step(good)
	for c := range want {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			t.Fatalf("cell %d after the rejected batch: %v, fresh filter %v", c, got[c], want[c])
		}
	}
}

// A step that fails inside a batch still leaves the maps of the steps
// before it written, bitwise the reference's, and writes no later map. The
// zeroed basis's vector k−1 is unobserved, so its variance only grows: at
// λ 3e307 and q 1 it overflows on the fifth step, the NaN that then enters
// the gain reaches every entry of P, and the sixth step's S is no longer
// positive definite.
func TestStepBatchIntoWritesMapsBeforeAFailedStep(t *testing.T) {
	ds, b, sensors := fixture(t)
	zb, _ := zeroedBasis(b, 6, sensors)
	zb.Importance[5] = 3e307
	cfg := Config{ProcessScale: 1}
	kf, err := NewKalman(zb, 6, sensors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefKalman(zb, 6, sensors, cfg)
	const batch = 24
	readings := make([][]float64, batch)
	dst := make([][]float64, batch)
	for i := range readings {
		readings[i] = kf.Sample(ds.Map(i))
		dst[i] = make([]float64, zb.N())
		for c := range dst[i] {
			dst[i][c] = -1
		}
	}
	_, _, err = kf.StepBatchInto(dst, readings)
	failed := -1
	for i, y := range readings {
		want, refErr := ref.stepLocked(y)
		if refErr != nil {
			failed = i
			break
		}
		for c := range want {
			if !sameBits(dst[i][c], want[c]) {
				t.Fatalf("step %d cell %d: %v, reference %v", i, c, dst[i][c], want[c])
			}
		}
	}
	if failed < 1 || err == nil {
		t.Fatalf("reference failed at step %d, batch error %v: want a failure after the first step", failed, err)
	}
	t.Logf("step %d fails: %v", failed, err)
	for i := failed; i < batch; i++ {
		for c, v := range dst[i] {
			if v != -1 {
				t.Fatalf("step %d (at or after the failure) cell %d written: %v", i, c, v)
			}
		}
	}
}
