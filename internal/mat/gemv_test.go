package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveBiasMulVec is the reference implementation the blocked kernels must
// match bit-for-bit (same left-to-right accumulation order per row).
func naiveBiasMulVec(bias []float64, a *Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows())
	for i := 0; i < a.Rows(); i++ {
		s := 0.0
		for j, v := range a.Row(i) {
			s += v * x[j]
		}
		out[i] = bias[i] + s
	}
	return out
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestMulVecBiasIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Row counts straddle the 4-row blocking boundary; col counts cover
	// tiny and serving-realistic operator widths.
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 17, 528} {
		for _, cols := range []int{1, 3, 8, 16} {
			a := NewFromData(rows, cols, randVec(rng, rows*cols))
			x := randVec(rng, cols)
			bias := randVec(rng, rows)
			want := naiveBiasMulVec(bias, a, x)
			got := make([]float64, rows)
			MulVecBiasInto(got, bias, a, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rows=%d cols=%d: dst[%d] = %v, want %v", rows, cols, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMulVecBiasBatchIntoMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewFromData(31, 8, randVec(rng, 31*8))
	bias := randVec(rng, 31)
	// Batch sizes straddle the 4-snapshot blocking boundary.
	for _, batch := range []int{1, 2, 4, 5, 9, 16} {
		xs := make([][]float64, batch)
		dst := make([][]float64, batch)
		for t2 := range xs {
			xs[t2] = randVec(rng, 8)
			dst[t2] = make([]float64, 31)
		}
		MulVecBiasBatchInto(dst, bias, a, xs)
		for t2 := range xs {
			single := make([]float64, 31)
			MulVecBiasInto(single, bias, a, xs[t2])
			for i := range single {
				if dst[t2][i] != single[i] {
					t.Fatalf("batch=%d: snapshot %d cell %d = %v, want %v", batch, t2, i, dst[t2][i], single[i])
				}
			}
		}
	}
}

func TestMulVecBiasIntoPanicsOnShape(t *testing.T) {
	a := New(4, 3)
	ok := make([]float64, 4)
	for _, tc := range []struct {
		name         string
		dst, bias, x []float64
	}{
		{"short dst", make([]float64, 3), ok, make([]float64, 3)},
		{"short bias", ok, make([]float64, 3), make([]float64, 3)},
		{"short x", ok, ok, make([]float64, 2)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			MulVecBiasInto(tc.dst, tc.bias, a, tc.x)
		}()
	}
}

const noAVX = "no AVX on this CPU or platform: MulVecBiasBatchInto runs the generic kernel only"

// edgeVals are the IEEE corner cases the vector kernel must reproduce bit
// for bit: signed zeros, subnormals, values whose products are subnormal,
// and ±1e300, whose products overflow to ±Inf and whose Inf sums turn to
// NaN. edgeVec mixes them into normal draws, one value in four.
var edgeVals = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 1e-310, -1e-310,
	1e-160, -1e-160,
	1e300, -1e300,
}

func edgeVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = edgeVals[rng.Intn(len(edgeVals))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// batchOf slices batch rows of width n out of one backing array.
func batchOf(vals []float64, batch, n int) [][]float64 {
	out := make([][]float64, batch)
	for t := range out {
		out[t] = vals[t*n : (t+1)*n : (t+1)*n]
	}
	return out
}

// batchKernel writes a whole batch: dst[t] = bias + a·xs[t], with seeded
// set in MulVecSeededBatchInto's order.
type batchKernel func(dst [][]float64, bias []float64, a *Matrix, xs [][]float64, seeded bool)

// batchKernels lists the batch kernels this CPU runs, by name, each
// called directly: the generic kernel, and each vector kernel with the
// generic one finishing the snapshots it leaves.
func batchKernels() map[string]batchKernel {
	ks := map[string]batchKernel{"generic": mulBiasBatchGeneric}
	vec := func(wide bool) batchKernel {
		return func(dst [][]float64, bias []float64, a *Matrix, xs [][]float64, seeded bool) {
			t := mulBiasBatchVec(dst, bias, a, xs, wide, seeded)
			mulBiasBatchGeneric(dst[t:], bias, a, xs[t:], seeded)
		}
	}
	if hasAVX {
		ks["avx"] = vec(false)
	}
	if hasAVX512 {
		ks["avx512"] = vec(true)
	}
	return ks
}

// dispatch is the exported pair of entry points as one batchKernel.
func dispatch(dst [][]float64, bias []float64, a *Matrix, xs [][]float64, seeded bool) {
	if seeded {
		MulVecSeededBatchInto(dst, bias, a, xs)
	} else {
		MulVecBiasBatchInto(dst, bias, a, xs)
	}
}

// synthesizeOrder is basis.SynthesizeInto's loop over the rows of a, the
// order MulVecSeededBatchInto must reproduce: the bias first, then one
// product at a time in ascending j.
func synthesizeOrder(dst [][]float64, bias []float64, a *Matrix, xs [][]float64) {
	for t, alpha := range xs {
		for i := range dst[t] {
			row := a.Row(i)
			s := bias[i]
			for j, v := range alpha {
				s += v * row[j]
			}
			dst[t][i] = s
		}
	}
}

// checkKernelMatchesGeneric runs kernel in both modes and fails on the
// first output whose bits differ from the generic kernel's (unseeded) or
// from synthesizeOrder's (seeded).
func checkKernelMatchesGeneric(t *testing.T, name string, kernel batchKernel, bias []float64, a *Matrix, xs [][]float64) {
	t.Helper()
	rows := a.Rows()
	for _, seeded := range []bool{false, true} {
		got := batchOf(make([]float64, len(xs)*rows), len(xs), rows)
		want := batchOf(make([]float64, len(xs)*rows), len(xs), rows)
		kernel(got, bias, a, xs, seeded)
		ref := "generic kernel"
		if seeded {
			synthesizeOrder(want, bias, a, xs)
			ref = "synthesis order"
		} else {
			mulBiasBatchGeneric(want, bias, a, xs, false)
		}
		for k := range want {
			for i := range want[k] {
				if g, w := got[k][i], want[k][i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s seeded=%v: snapshot %d cell %d = %v (%#x), %s %v (%#x)",
						name, seeded, k, i, g, math.Float64bits(g), ref, w, math.Float64bits(w))
				}
			}
		}
	}
}

func TestMulVecBiasBatchAVXMatchesGeneric(t *testing.T) {
	if !hasAVX {
		t.Skip(noAVX)
	}
	rng := rand.New(rand.NewSource(19))
	// Rows straddle the 4-row block and reach the served N; M straddles
	// the packed block and the stack buffer; batches straddle the
	// 4-snapshot block.
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 224, 3360} {
		for _, m := range []int{1, 2, 3, 8, 12, 24, 100} {
			a := NewFromData(rows, m, edgeVec(rng, rows*m))
			bias := edgeVec(rng, rows)
			for _, batch := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 128} {
				xs := batchOf(edgeVec(rng, batch*m), batch, m)
				checkKernelMatchesGeneric(t, fmt.Sprintf("rows=%d m=%d batch=%d", rows, m, batch), dispatch, bias, a, xs)
			}
		}
	}
}

// Each vector kernel, called directly, against the generic one: rows
// straddle the 4- and 8-row blocks, M straddles the stack-packed block of
// both widths, and batches straddle the 4- and 8-snapshot blocks.
func TestMulVecBiasBatchKernelsMatchGeneric(t *testing.T) {
	kernels := batchKernels()
	if len(kernels) == 1 {
		t.Skip(noAVX)
	}
	for name := range kernels {
		t.Logf("kernel %s runs on this CPU", name)
	}
	rng := rand.New(rand.NewSource(23))
	for _, rows := range []int{1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 224} {
		for _, m := range []int{1, 3, 8, 24, 32, 33, 100} {
			a := NewFromData(rows, m, edgeVec(rng, rows*m))
			bias := edgeVec(rng, rows)
			for _, batch := range []int{1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24} {
				xs := batchOf(edgeVec(rng, batch*m), batch, m)
				for name, kernel := range kernels {
					checkKernelMatchesGeneric(t, fmt.Sprintf("%s rows=%d m=%d batch=%d", name, rows, m, batch), kernel, bias, a, xs)
				}
			}
		}
	}
}

// FuzzMulVecBiasBatchInto checks each kernel, and the dispatch over them,
// against the generic one bit for bit, and in the seeded mode against the
// synthesis order, on fuzzer-chosen shapes and float64 bit patterns. data is read as little-endian float64 words, cycled
// over the operator, the bias and the readings in that order. NaN words
// read as 0: which payload an add of two NaNs propagates depends on the
// operand order the compiler picked for the generic kernel, and recon never
// passes a NaN (it rejects non-finite readings). NaNs produced inside the
// kernel, from Inf−Inf or 0·Inf, are still compared.
func FuzzMulVecBiasBatchInto(f *testing.F) {
	words := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(4), uint8(24), uint8(16), words(1, -2.5, 0.125, 3))
	f.Add(uint8(7), uint8(3), uint8(9), words(math.Copysign(0, -1), 5e-324, 1e300, -1e300, 0.5))
	f.Add(uint8(17), uint8(100), uint8(5), words(1e-160, -1e-160, 1e-310, 7, math.Inf(1)))
	f.Add(uint8(1), uint8(1), uint8(4), []byte{})
	// Rows 1, 4 and 7 have a −0 weight and a −0 bias, so each snapshot
	// reading +0 sums −0 + −0 there: only the seeded mode keeps the −0 (on
	// the 8-wide kernel, a 4-wide block and a tail).
	f.Add(uint8(8), uint8(0), uint8(12), words(0, math.Copysign(0, -1), -1))
	f.Fuzz(func(t *testing.T, rows, m, batch uint8, data []byte) {
		if !hasAVX {
			t.Skip(noAVX)
		}
		nr, nm, nb := int(rows%64)+1, int(m%128)+1, int(batch%32)+1
		vals := make([]float64, nr*nm+nr+nb*nm)
		if nw := len(data) / 8; nw > 0 {
			for k := range vals {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(k%nw):]))
				if !math.IsNaN(v) {
					vals[k] = v
				}
			}
		}
		a := NewFromData(nr, nm, vals[:nr*nm])
		bias := vals[nr*nm : nr*nm+nr]
		xs := batchOf(vals[nr*nm+nr:], nb, nm)
		shape := fmt.Sprintf("rows=%d m=%d batch=%d", nr, nm, nb)
		checkKernelMatchesGeneric(t, shape, dispatch, bias, a, xs)
		for name, kernel := range batchKernels() {
			checkKernelMatchesGeneric(t, name+" "+shape, kernel, bias, a, xs)
		}
	})
}

// The seeded mode keeps a −0 bias cell whose products are all −0 on every
// kernel, where the unseeded one reads +0: the case that makes the seeded
// mode, not the unseeded one over [bias | a], the synthesis order.
func TestMulVecSeededBatchIntoKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const rows, m, batch = 17, 3, 13
	a := NewFromData(rows, m, randVec(rand.New(rand.NewSource(3)), rows*m))
	bias := make([]float64, rows)
	for i := range bias {
		bias[i] = 40 + float64(i)
	}
	copy(a.Row(5), []float64{0, 0, 0})
	bias[5] = negZero
	xs := batchOf(make([]float64, batch*m), batch, m)
	for _, x := range xs {
		copy(x, []float64{-1, -2, -3})
	}
	for name, kernel := range batchKernels() {
		for _, seeded := range []bool{false, true} {
			dst := batchOf(make([]float64, batch*rows), batch, rows)
			kernel(dst, bias, a, xs, seeded)
			for k := range dst {
				if got := math.Signbit(dst[k][5]); dst[k][5] != 0 || got != seeded {
					t.Fatalf("%s seeded=%v: snapshot %d cell 5 = %v (sign bit %v)", name, seeded, k, dst[k][5], got)
				}
			}
		}
	}
}

// The serving kernel allocates nothing per call: at M = 24 the packed
// readings sit in a stack buffer, at M = 100 (wider than the stack buffer)
// in a pooled one.
func TestMulVecBiasBatchIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{24, 100} {
		if m == 100 && raceEnabled {
			t.Logf("m=%d: skipped under -race (sync.Pool drops buffers there)", m)
			continue
		}
		const rows, batch = 224, 16
		a := NewFromData(rows, m, randVec(rng, rows*m))
		bias := randVec(rng, rows)
		xs := batchOf(randVec(rng, batch*m), batch, m)
		dst := batchOf(make([]float64, batch*rows), batch, rows)
		if allocs := testing.AllocsPerRun(50, func() { MulVecBiasBatchInto(dst, bias, a, xs) }); allocs != 0 {
			t.Fatalf("m=%d: %v allocs per call, want 0", m, allocs)
		}
	}
}

// BenchmarkMulVecBiasBatch times the batch kernel at the two served shapes
// (the paper-scale die's estimate request and the fleet's JSON request) on
// each path — avx is the 4×4 AVX kernel, avx512 the 8×8 AVX-512 one —
// reporting the GEMM's rate as 2·N·M·batch flops per call.
func BenchmarkMulVecBiasBatch(b *testing.B) {
	kernels := batchKernels()
	for _, sh := range []struct{ rows, m, batch int }{{3360, 24, 16}, {224, 12, 128}} {
		for _, path := range []string{"avx", "avx512", "generic"} {
			b.Run(fmt.Sprintf("N=%d/M=%d/batch=%d/path=%s", sh.rows, sh.m, sh.batch, path), func(b *testing.B) {
				run, ok := kernels[path]
				if !ok {
					b.Skipf("no %s kernel on this CPU or platform", path)
				}
				rng := rand.New(rand.NewSource(1))
				a := NewFromData(sh.rows, sh.m, randVec(rng, sh.rows*sh.m))
				bias := randVec(rng, sh.rows)
				xs := batchOf(randVec(rng, sh.batch*sh.m), sh.batch, sh.m)
				dst := batchOf(make([]float64, sh.batch*sh.rows), sh.batch, sh.rows)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(dst, bias, a, xs, false)
				}
				flops := 2 * float64(sh.rows*sh.m*sh.batch) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
