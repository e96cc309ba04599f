package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// snapshotSummary and summarizeRef are the daemon's map summary as it was
// before Summarize, kept verbatim as the reference Summarize's extremes
// are pinned against.
type snapshotSummary struct {
	MaxC, MinC, MeanC float64
	MaxCell           int
	Map               []float64
}

// summarizeRef is the daemon's former summarize, verbatim but for its name
// (and this line): it digests one map in a single fused pass (min, max,
// mean, argmax together — the summary is a measurable slice of serving
// cost at high snapshot rates). Bit-identical to mat.MinMax + mat.Mean + a
// first-match
// scan: the max updates only on strict improvement, so MaxCell is the first
// index attaining the global max, and the mean accumulates left to right.
func summarizeRef(x []float64, includeMap bool) snapshotSummary {
	lo, hi := x[0], x[0]
	acc := x[0]
	maxCell := 0
	for i := 1; i < len(x); i++ {
		v := x[i]
		acc += v
		if v > hi {
			hi, maxCell = v, i
		} else if v < lo {
			lo = v
		}
	}
	sum := snapshotSummary{MaxC: hi, MinC: lo, MeanC: acc / float64(len(x)), MaxCell: maxCell}
	if includeMap {
		sum.Map = x
	}
	return sum
}

// summaryPaths lists the blocked passes this CPU runs.
func summaryPaths() map[string]bool {
	ps := map[string]bool{"generic": false}
	if hasAVX {
		ps["avx"] = true
	}
	return ps
}

// meanWithinBound reports whether mean lies within the blocked sum's bound
// (⌈N/L⌉ + log₂L)·u·Σ|xᵢ|/N of the exact mean of x, computed in math/big,
// plus one smallest subnormal for the division's underflow.
func meanWithinBound(x []float64, mean float64) (ok bool, diff, bound *big.Float) {
	const prec = 4096 // exact for any sum of float64s
	sum, abs := new(big.Float).SetPrec(prec), new(big.Float).SetPrec(prec)
	for _, v := range x {
		sum.Add(sum, big.NewFloat(v))
		abs.Add(abs, big.NewFloat(math.Abs(v)))
	}
	n := new(big.Float).SetInt64(int64(len(x)))
	exact := new(big.Float).SetPrec(prec).Quo(sum, n)
	diff = new(big.Float).SetPrec(prec).Sub(big.NewFloat(mean), exact)
	diff.Abs(diff)
	adds := (len(x)+summaryLanes-1)/summaryLanes + 3 // ⌈N/L⌉ + log₂L
	bound = new(big.Float).SetPrec(prec).Quo(abs, n)
	bound.Mul(bound, new(big.Float).SetFloat64(float64(adds)*0x1p-53))
	bound.Add(bound, big.NewFloat(math.SmallestNonzeroFloat64))
	return diff.Cmp(bound) <= 0, diff, bound
}

func allFinite(x []float64) bool {
	for _, v := range x {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// checkSummarize pins one path's summary of x: the extremes and argmax by
// bits against the reference scan, the mean by bits where Summarize falls
// back to that scan and within the blocked bound of the exact mean
// elsewhere.
func checkSummarize(t *testing.T, name string, x []float64, avx bool) {
	t.Helper()
	hi, lo, mean, at := summarize(x, avx)
	ref := summarizeRef(x, false)
	if math.Float64bits(hi) != math.Float64bits(ref.MaxC) || math.Float64bits(lo) != math.Float64bits(ref.MinC) || at != ref.MaxCell {
		t.Fatalf("%s: max %v (%#x) min %v (%#x) cell %d, reference max %v (%#x) min %v (%#x) cell %d",
			name, hi, math.Float64bits(hi), lo, math.Float64bits(lo), at,
			ref.MaxC, math.Float64bits(ref.MaxC), ref.MinC, math.Float64bits(ref.MinC), ref.MaxCell)
	}
	if math.Float64bits(mean) == math.Float64bits(ref.MeanC) {
		return
	}
	if len(x) < summaryLanes || !allFinite(x) {
		t.Fatalf("%s: mean %v, want the scalar scan's %v", name, mean, ref.MeanC)
	}
	if ok, diff, bound := meanWithinBound(x, mean); !ok {
		t.Fatalf("%s: mean %v is %.3g from the exact mean, over the bound %.3g", name, mean, diff, bound)
	}
}

// checkTwins fails unless the vector pass and its generic twin return the
// same bits.
func checkTwins(t *testing.T, name string, x []float64) {
	t.Helper()
	if !hasAVX {
		return
	}
	h1, l1, m1, a1 := summarize(x, true)
	h2, l2, m2, a2 := summarize(x, false)
	if math.Float64bits(h1) != math.Float64bits(h2) || math.Float64bits(l1) != math.Float64bits(l2) ||
		math.Float64bits(m1) != math.Float64bits(m2) || a1 != a2 {
		t.Fatalf("%s: avx (%v %v %v %d) != generic (%v %v %v %d)", name, h1, l1, m1, a1, h2, l2, m2, a2)
	}
}

// summaryMaps draws maps of length n: smooth temperatures, coarse values
// with repeated extremes, signed zeros only, and maps with ±Inf and NaN
// cells.
func summaryMaps(rng *rand.Rand, n int) map[string][]float64 {
	negZero := math.Copysign(0, -1)
	maps := map[string][]float64{}
	x := make([]float64, n)
	for i := range x {
		x[i] = 45 + 10*rng.NormFloat64()
	}
	maps["temperatures"] = x
	x = make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(5) - 2)
	}
	maps["repeated extremes"] = x
	x = make([]float64, n)
	for i := range x {
		if rng.Intn(2) == 0 {
			x[i] = negZero
		}
	}
	maps["signed zeros"] = x
	x = make([]float64, n)
	for i := range x {
		if rng.Intn(2) == 0 {
			x[i] = negZero
		}
		if rng.Intn(4) == 0 {
			x[i] = rng.NormFloat64()
		}
	}
	maps["zeros and values"] = x
	// Zero extremes: a zero maximum over negative cells and a zero
	// minimum over positive ones, the zeros of both signs anywhere, so
	// the first zero (whose sign the extreme takes) falls in every lane.
	for _, sign := range []float64{-1, 1} {
		x = make([]float64, n)
		for i := range x {
			x[i] = sign * (1 + rng.Float64())
			if rng.Intn(4) == 0 {
				x[i] = math.Copysign(0, rng.Float64()-0.5)
			}
		}
		maps[fmt.Sprintf("signed zeros among %+v", sign)] = x
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		x = make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		x[rng.Intn(n)] = bad
		maps[fmt.Sprintf("one %v", bad)] = x
	}
	x = make([]float64, n)
	for i := range x {
		x[i] = edgeVals[rng.Intn(len(edgeVals))]
	}
	maps["edge values"] = x
	return maps
}

func TestSummarizeMatchesScalarScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sizes := []int{}
	for n := 1; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 63, 64, 65, 127, 128, 129, 224, 1000, 3359, 3360, 3361)
	for _, n := range sizes {
		for trial := 0; trial < 3; trial++ {
			for kind, x := range summaryMaps(rng, n) {
				name := fmt.Sprintf("N=%d %s #%d", n, kind, trial)
				for path, avx := range summaryPaths() {
					checkSummarize(t, path+" "+name, x, avx)
				}
				checkTwins(t, name, x)
			}
		}
	}
}

// A map whose blocked sum overflows but whose scalar sum does not falls
// back to the scalar scan whole, mean included.
func TestSummarizeFallsBackOnOverflow(t *testing.T) {
	x := make([]float64, 16)
	x[0], x[1], x[8] = 1e308, -1e308, 1e308 // lane 0 overflows, the scan does not
	for path, avx := range summaryPaths() {
		_, _, mean, _ := summarize(x, avx)
		if want := summarizeRef(x, false).MeanC; math.Float64bits(mean) != math.Float64bits(want) || math.IsInf(mean, 0) {
			t.Fatalf("%s: mean %v, want the scalar scan's finite %v", path, mean, want)
		}
	}
}

// The blocked mean is closer to the exact mean than the sequential sum's
// bound demands, on the map the served die has (N = 3360).
func TestSummarizeMeanWithinBlockedBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 3360)
		for i := range x {
			x[i] = 1e3 * rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		for path, avx := range summaryPaths() {
			_, _, mean, _ := summarize(x, avx)
			if ok, diff, bound := meanWithinBound(x, mean); !ok {
				t.Fatalf("%s trial %d: mean is %.3g from exact, over the bound %.3g", path, trial, diff, bound)
			}
		}
	}
}

// FuzzSummarize runs Summarize's paths on arbitrary float64 bit patterns,
// NaN payloads included: extremes and argmax by bits against the
// reference scan, the mean within the blocked bound (or by bits where the
// scan answers), and the two paths by bits against each other.
func FuzzSummarize(f *testing.F) {
	words := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(words(1, 2, 3, 4, 5, 6, 7, 8, 9))
	f.Add(words(0, negZero, 0, negZero, negZero, 0, 0, negZero, 0, negZero, 0))
	f.Add(words(negZero, 0, 5e-324, -5e-324, 1e300, -1e300, 1e-310, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7))
	f.Add(words(1, 2, math.NaN(), 4, 5, math.Inf(1), 7, 8, math.Inf(-1), 0))
	f.Add(words(1e308, -1e308, 0, 0, 0, 0, 0, 0, 1e308, 0, 0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		name := fmt.Sprintf("N=%d", n)
		for path, avx := range summaryPaths() {
			checkSummarize(t, path+" "+name, x, avx)
		}
		checkTwins(t, name, x)
	})
}

// Summarize allocates nothing: the lane state lives on the stack.
func TestSummarizeZeroAlloc(t *testing.T) {
	x := randVec(rand.New(rand.NewSource(3)), 3360)
	if allocs := testing.AllocsPerRun(100, func() { Summarize(x) }); allocs != 0 {
		t.Fatalf("%v allocs per call, want 0", allocs)
	}
}

// BenchmarkSummarize times one map's summary at the paper-scale die's N and
// the fleet's, on each blocked path and on the scalar scan it replaced.
func BenchmarkSummarize(b *testing.B) {
	for _, n := range []int{3360, 224} {
		x := randVec(rand.New(rand.NewSource(1)), n)
		for _, path := range []string{"avx", "generic", "scalar"} {
			b.Run(fmt.Sprintf("N=%d/path=%s", n, path), func(b *testing.B) {
				run := func() { summarize(x, path == "avx") }
				switch {
				case path == "avx" && !hasAVX:
					b.Skip(noAVX)
				case path == "scalar":
					run = func() { summarizeScalar(x) }
				}
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}
