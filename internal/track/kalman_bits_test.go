package track

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
	"repro/internal/mat"
)

// zeroedBasis is b with exact zeros planted where the step's zero-factor
// skips act on them: basis vector k−1 vanishes at every sensor (so its
// column of Ψ̃, its row of P⁻Ψ̃ᵀ and of the gain, and the off-diagonal
// entries of its row of I − GΨ̃ start out exactly zero), one more sensor
// misses vector 1, and λ_3 is zero, which the prior floors at 1e-12.
func zeroedBasis(b *basis.Basis, k int, sensors []int) *basis.Basis {
	z := *b
	z.Psi = b.Psi.Clone()
	z.Mean = append([]float64(nil), b.Mean...)
	z.Importance = append([]float64(nil), b.Importance...)
	for _, s := range sensors {
		z.Psi.Set(s, k-1, 0)
	}
	z.Psi.Set(sensors[2], 1, 0)
	z.Importance[3] = 0
	return &z
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestStepBatchIntoBitIdenticalToReference runs the allocation-free step and
// the reference step (kalman_ref_test.go) side by side over 2,048 noisy
// snapshots in batches of 1 to 17, with one Reset part-way, and compares
// every map, α, P, the step count and tr(P) bit for bit after each batch:
// for ρ 1 and 0.9, with more sensors than coefficients, as many, fewer, and
// on a basis with planted exact zeros.
func TestStepBatchIntoBitIdenticalToReference(t *testing.T) {
	ds, b, sensors := fixture(t)
	cases := []struct {
		name    string
		b       *basis.Basis
		k       int
		sensors []int
	}{
		{"M>K", b, 5, sensors},
		{"M=K", b, 8, sensors},
		{"M<K", b, 10, sensors[:6]},
		{"zeros", zeroedBasis(b, 6, sensors), 6, sensors},
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
			step, size := 0, 0
			for step < total {
				size = size%17 + 1
				if step < resetAt && step+size > resetAt {
					size = resetAt - step
				}
				readings := make([][]float64, size)
				for i := range readings {
					truth := ds.Map((step + i) % ds.T())
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
