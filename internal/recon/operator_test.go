package recon

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// maxRelDiff returns max_i |a_i−b_i| / max(1, max_i |a_i|).
func maxRelDiff(a, b []float64) float64 {
	var diff, scale float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > diff {
			diff = d
		}
		if m := math.Abs(a[i]); m > scale {
			scale = m
		}
	}
	if scale < 1 {
		scale = 1
	}
	return diff / scale
}

// qrReference is the two-stage Theorem 1 estimate the folded operator
// replaced on the serving path: QR back-substitution for α̂, then the basis
// lift x̃ = mean + Ψ_K α̂.
func qrReference(t *testing.T, r *Reconstructor, xS []float64) []float64 {
	t.Helper()
	alpha, err := r.Coefficients(xS)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, r.N())
	r.Basis().SynthesizeInto(x, alpha)
	return x
}

// The operator and the QR reference compute the same Theorem 1 estimate
// with different operation orders, so they agree to accumulation-order
// error only. 1e-12 relative is a loose bound for K,M ≤ 16 with a
// well-conditioned layout: each path does O(K·M) flops per cell on
// O(1)-magnitude basis entries, so the float64 rounding gap is ~1e-14;
// 1e-12 leaves two orders of margin without ever masking a real algebra
// bug.
func TestOperatorArmAgreesWithQR(t *testing.T) {
	for _, m := range []int{5, 8, 12} {
		r, err := New(testBasis, 5, greedySensors(t, 5, m))
		if err != nil {
			t.Fatal(err)
		}
		opDst := make([]float64, r.N())
		for j := 0; j < 20; j++ {
			xS := r.Sample(testSet.Map(j))
			if err := r.ReconstructInto(opDst, xS); err != nil {
				t.Fatal(err)
			}
			if d := maxRelDiff(qrReference(t, r, xS), opDst); d > 1e-12 {
				t.Fatalf("M=%d map %d: operator and QR reference disagree by %g relative", m, j, d)
			}
		}
	}
}

// ReconstructInto is exactly the folded operator applied: x̃ = c + R·x_S.
func TestDefaultArmIsOperator(t *testing.T) {
	r, err := New(testBasis, 4, greedySensors(t, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	xS := r.Sample(testSet.Map(3))
	def := make([]float64, r.N())
	if err := r.ReconstructInto(def, xS); err != nil {
		t.Fatal(err)
	}
	op, bias := r.Operator()
	want := make([]float64, r.N())
	mat.MulVecBiasInto(want, bias, op, xS)
	for i := range def {
		if def[i] != want[i] {
			t.Fatalf("cell %d: ReconstructInto %v != c + R·x_S %v", i, def[i], want[i])
		}
	}
}

func TestBatchArmMatchesSequentialBitwise(t *testing.T) {
	r, err := New(testBasis, 5, greedySensors(t, 5, 9))
	if err != nil {
		t.Fatal(err)
	}
	const batch = 11 // straddles the 4-snapshot GEMM blocking
	readings := make([][]float64, batch)
	dst := make([][]float64, batch)
	for j := range readings {
		readings[j] = r.Sample(testSet.Map(j))
		dst[j] = make([]float64, r.N())
	}
	if err := r.ReconstructBatchInto(dst, readings, 3); err != nil {
		t.Fatal(err)
	}
	single := make([]float64, r.N())
	for j := range readings {
		if err := r.ReconstructInto(single, readings[j]); err != nil {
			t.Fatal(err)
		}
		for i := range single {
			if dst[j][i] != single[i] {
				t.Fatalf("snapshot %d cell %d: batch %v != single %v", j, i, dst[j][i], single[i])
			}
		}
	}
}

// The fold is deterministic: building twice from the same inputs yields a
// bit-identical operator.
func TestFoldDeterministic(t *testing.T) {
	sensors := greedySensors(t, 5, 10)
	r1, err := New(testBasis, 5, sensors)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(testBasis, 5, sensors)
	if err != nil {
		t.Fatal(err)
	}
	op1, bias1 := r1.Operator()
	op, bias := r2.Operator()
	if !op.Equal(op1, 0) {
		t.Fatal("re-folded operator differs bitwise")
	}
	for i := range bias1 {
		if bias[i] != bias1[i] {
			t.Fatalf("bias[%d] differs bitwise", i)
		}
	}
}

func TestRestoreWithOperator(t *testing.T) {
	sensors := greedySensors(t, 5, 10)
	r1, err := New(testBasis, 5, sensors)
	if err != nil {
		t.Fatal(err)
	}
	op, bias := r1.Operator()
	r2, err := RestoreWithOperator(testBasis, 5, sensors, r1.QR(), op, bias)
	if err != nil {
		t.Fatal(err)
	}
	xS := r1.Sample(testSet.Map(5))
	want := make([]float64, r1.N())
	got := make([]float64, r2.N())
	if err := r1.ReconstructInto(want, xS); err != nil {
		t.Fatal(err)
	}
	if err := r2.ReconstructInto(got, xS); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: restored %v != original %v", i, got[i], want[i])
		}
	}

	// Shape and nil validation.
	if _, err := RestoreWithOperator(testBasis, 5, sensors, r1.QR(), nil, bias); err == nil {
		t.Fatal("nil operator accepted")
	}
	if _, err := RestoreWithOperator(testBasis, 5, sensors, r1.QR(), mat.New(3, 3), bias); err == nil {
		t.Fatal("wrong-shape operator accepted")
	}
	if _, err := RestoreWithOperator(testBasis, 5, sensors, r1.QR(), op, bias[:4]); err == nil {
		t.Fatal("wrong-length bias accepted")
	}
}
