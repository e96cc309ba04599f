package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dotsRef is the definition both column kernels must reproduce: column c's
// product as one Dot of x with the column gathered out of the K-major
// block.
func dotsRef(x, b []float64) []float64 {
	n := len(b) / len(x)
	out := make([]float64, n)
	col := make([]float64, len(x))
	for c := range out {
		for i := range x {
			col[i] = b[i*n+c]
		}
		out[c] = Dot(x, col)
	}
	return out
}

// dotsBlockFixture returns a K-major block of n columns of length k full
// of the cases the kernels must agree on: columns that repeat or negate an
// earlier one (exact ties in |·|), NaN columns, all-zero columns and
// columns that tie x's own direction.
func dotsBlockFixture(rng *rand.Rand, x []float64, n int) []float64 {
	k := len(x)
	b := make([]float64, k*n)
	for c := 0; c < n; c++ {
		switch r := rng.Intn(10); {
		case c > 0 && r == 0: // a repeat
			src := rng.Intn(c)
			for i := 0; i < k; i++ {
				b[i*n+c] = b[i*n+src]
			}
		case c > 0 && r == 1: // a negation
			src := rng.Intn(c)
			for i := 0; i < k; i++ {
				b[i*n+c] = -b[i*n+src]
			}
		case r == 2: // dead
			for i := 0; i < k; i++ {
				b[i*n+c] = math.NaN()
			}
		case r == 3: // zero
		case r == 4: // x itself, scaled by a power of two
			for i := 0; i < k; i++ {
				b[i*n+c] = x[i] * 0.5
			}
		default:
			for i := 0; i < k; i++ {
				b[i*n+c] = rng.NormFloat64()
			}
		}
	}
	return b
}

// dotsKernels lists the kernels this platform can run: the generic twins
// always, the AVX and AVX-512 ones where the CPU has them.
func dotsKernels() map[string]dotsKernel {
	ks := map[string]dotsKernel{"generic": dotsGeneric}
	if hasAVX {
		ks["avx"] = dotsAVX
	}
	if hasAVX512 {
		ks["avx512"] = dotsAVX512
	}
	return ks
}

// TestDotsKernelsBitIdentical pins both column kernels, generic, AVX and
// AVX-512, to the Dot definition: the largest value's float32 bits and its
// first column, and every written value, for K below, at and past the
// AVX-512 accumulator width, for one and several 64-column passes, with
// the skipped column anywhere (or nowhere).
func TestDotsKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, k := range []int{1, 2, 3, 8, 12, 16, 17} {
		for _, n := range []int{64, 128, 192, 448, 3392} {
			x := make([]float64, k)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			b := dotsBlockFixture(rng, x, n)
			ref := dotsRef(x, b)
			for name, kern := range dotsKernels() {
				for _, skip := range []int{-1, 0, rng.Intn(n), n - 1, n} {
					want, wantArg := float32(math.Inf(-1)), -1
					for c, s := range ref {
						if v := float32(math.Abs(s)); v > want && c != skip {
							want, wantArg = v, c
						}
					}
					got, arg := dotsArgMax(kern, x, b, skip, nil)
					if math.Float32bits(got) != math.Float32bits(want) || arg != wantArg {
						t.Fatalf("%s k=%d n=%d skip=%d: max %v at %d, want %v at %d",
							name, k, n, skip, got, arg, want, wantArg)
					}
					var sums [DotsSumLanes]float64
					got, arg = dotsArgMax(kern, x, b, skip, &sums)
					if math.Float32bits(got) != math.Float32bits(want) || arg != wantArg {
						t.Fatalf("%s k=%d n=%d skip=%d: with sums, max %v at %d, want %v at %d",
							name, k, n, skip, got, arg, want, wantArg)
					}
					checkLaneSums(t, fmt.Sprintf("%s k=%d n=%d skip=%d", name, k, n, skip), &sums, ref, skip)
				}
				dst := make([]float32, n)
				absDotsInto(kern, dst, x, b)
				for c, s := range ref {
					want := float32(math.Abs(s))
					if math.IsNaN(s) {
						want = 0
					}
					if math.Float32bits(dst[c]) != math.Float32bits(want) {
						t.Fatalf("%s k=%d n=%d: column %d value %v, want %v", name, k, n, c, dst[c], want)
					}
				}
			}
		}
	}
}

// checkLaneSums holds DotsArgMaxSum's lanes to the magnitudes
// float32(|ref[c]|) stored one by one: lane l, bit for bit, is their sum
// over the columns c ≡ l (mod DotsSumLanes), c ≠ skip and not NaN, in
// ascending order from +0; and the pairwise total is within the blocked
// sum's bound, (n/DotsSumLanes + 4)·2⁻⁵³ of itself, of the serial sum.
func checkLaneSums(t *testing.T, name string, sums *[DotsSumLanes]float64, ref []float64, skip int) {
	t.Helper()
	var want [DotsSumLanes]float64
	var serial float64
	for c, s := range ref {
		m := float32(math.Abs(s))
		if c == skip || m != m {
			continue
		}
		want[c%DotsSumLanes] += float64(m)
		serial += float64(m)
	}
	for l := range want {
		if math.Float64bits(sums[l]) != math.Float64bits(want[l]) {
			t.Fatalf("%s: lane %d sum %v, want %v", name, l, sums[l], want[l])
		}
	}
	total := sumLanes(sums)
	bound := float64(len(ref)/DotsSumLanes+4+len(ref)) * 0x1p-53 * total
	if d := math.Abs(total - serial); d > bound {
		t.Fatalf("%s: blocked sum %v, serial %v: |difference| %v above %v", name, total, serial, d, bound)
	}
}

// TestDotsArgMaxSumPublic pins DotsArgMaxSum to the kernels it runs: the
// maximum and column of DotsArgMax and the pairwise total of the lanes.
func TestDotsArgMaxSumPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	x := []float64{0.5, -1, 2}
	b := dotsBlockFixture(rng, x, 192)
	v, c, sum := DotsArgMaxSum(x, b, 3)
	wv, wc := DotsArgMax(x, b, 3)
	var sums [DotsSumLanes]float64
	dotsArgMax(dotsGeneric, x, b, 3, &sums)
	if v != wv || c != wc || math.Float64bits(sum) != math.Float64bits(sumLanes(&sums)) {
		t.Fatalf("DotsArgMaxSum %v at %d sum %v; DotsArgMax %v at %d, generic lanes sum %v", v, c, sum, wv, wc, sumLanes(&sums))
	}
}

// TestDotsArgMaxNoneQualifies pins the empty result: every column NaN, or
// the only column skipped, gives −∞ at −1.
func TestDotsArgMaxNoneQualifies(t *testing.T) {
	x := []float64{1, 2}
	dead := make([]float64, 2*DotsWidth)
	for i := range dead {
		dead[i] = math.NaN()
	}
	one := make([]float64, 2*DotsWidth)
	copy(one, dead)
	one[5], one[DotsWidth+5] = 1, 1
	for name, kern := range dotsKernels() {
		for _, c := range []struct {
			b    []float64
			skip int
		}{{dead, -1}, {one, 5}} {
			if v, arg := dotsArgMax(kern, x, c.b, c.skip, nil); !math.IsInf(float64(v), -1) || arg != -1 {
				t.Fatalf("%s skip=%d: %v at %d, want -Inf at -1", name, c.skip, v, arg)
			}
		}
		if v, arg := dotsArgMax(kern, x, one, -1, nil); v != 3 || arg != 5 {
			t.Fatalf("%s: %v at %d, want 3 at 5", name, v, arg)
		}
	}
}

func TestDotsRejectsBadShapes(t *testing.T) {
	for _, c := range []struct {
		x, b []float64
	}{
		{nil, make([]float64, DotsWidth)},
		{make([]float64, 2), make([]float64, 2*DotsWidth+1)},
		{make([]float64, 2), make([]float64, 2*(DotsWidth+8))},
		{make([]float64, 2), nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("len(x)=%d len(b)=%d: no panic", len(c.x), len(c.b))
				}
			}()
			DotsArgMax(c.x, c.b, -1)
		}()
	}
}

func BenchmarkDots(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range []struct{ k, n int }{{16, 3392}, {12, 1024}} {
		x := make([]float64, shape.k)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		blk := dotsBlockFixture(rng, x, shape.n)
		dst := make([]float32, shape.n)
		for name, kern := range dotsKernels() {
			b.Run(fmt.Sprintf("k=%d/n=%d/path=%s/argmax", shape.k, shape.n, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dotsArgMax(kern, x, blk, 7, nil)
				}
			})
			b.Run(fmt.Sprintf("k=%d/n=%d/path=%s/argmaxsum", shape.k, shape.n, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var sums [DotsSumLanes]float64
					dotsArgMax(kern, x, blk, 7, &sums)
				}
			})
			b.Run(fmt.Sprintf("k=%d/n=%d/path=%s/values", shape.k, shape.n, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					absDotsInto(kern, dst, x, blk)
				}
			})
		}
	}
}
