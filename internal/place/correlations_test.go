package place

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mat"
)

// The correlation build as it was with four rows per block, kept (renamed,
// magnitude rule only) as the reference the on-demand correlations of the
// K-major block must reproduce bit for bit
// (TestCorrelationsBitIdenticalToFourRowBuild). Allocate stored this R×R
// matrix until the column kernels replaced it.

// correlations4 returns Algorithm 1's row-correlation matrix of the
// normalized rows of u, R×R in float32: G[i][j] = |uᵢ·uⱼ| off the diagonal
// and a diagonal of 0. It also returns each row's largest
// off-diagonal entry and its column (the first on ties, −1 when there is
// none): the row maxima with every row still active.
//
// Rows are built four at a time as one batch product U·[uᵢ … uᵢ₊₃] through
// mat.MulVecBiasBatchInto against a zero bias: each entry is then a single
// dot product summed left to right from +0 — mat.Dot's sum, and the same
// one for G[i][j] and G[j][i] since the products commute — so both
// triangles come out exactly as the pairwise build would mirror them. The
// blocks are independent, so they fan out over the CPUs.
func correlations4(u *mat.Matrix) (gm, rowMax []float32, rowArg []int) {
	nr := u.Rows()
	gm = make([]float32, nr*nr)
	rowMax = make([]float32, nr)
	rowArg = make([]int, nr)
	zero := make([]float64, nr)
	mat.ParallelChunks((nr+3)/4, 0, func(lo, hi int) {
		buf := mat.New(4, nr)
		dst := make([][]float64, 4)
		xs := make([][]float64, 4)
		for b := lo; b < hi; b++ {
			i0, i1 := 4*b, min(4*b+4, nr)
			for i := i0; i < i1; i++ {
				dst[i-i0] = buf.Row(i - i0)
				xs[i-i0] = u.Row(i)
			}
			mat.MulVecBiasBatchInto(dst[:i1-i0], zero, u, xs[:i1-i0])
			for i := i0; i < i1; i++ {
				row := gm[i*nr : (i+1)*nr]
				best := float32(math.Inf(-1))
				arg := -1
				for j, v := range dst[i-i0] {
					row[j] = float32(math.Abs(v))
					if j != i && row[j] > best {
						best = row[j]
						arg = j
					}
				}
				row[i] = 0
				rowMax[i], rowArg[i] = best, arg
			}
		}
	})
	return gm, rowMax, rowArg
}

// scalarKernels are the column kernels computed one column at a time with
// mat.Dot, their definition: Allocate run through them and through mat's
// kernels (AVX-512 where the CPU has it) must place the same sensors. Their
// aggregate seeds are serial sums, not the blocked ones, which the
// tie-break margin covers as well.
var scalarKernels = columnKernels{
	argMax: func(x, b []float64, skip int) (float32, int) {
		best, arg := float32(math.Inf(-1)), -1
		for c, s := range scalarDots(x, b) {
			if v := float32(math.Abs(s)); v > best && c != skip {
				best, arg = v, c
			}
		}
		return best, arg
	},
	argMaxSum: func(x, b []float64, skip int) (float32, int, float64) {
		best, arg := float32(math.Inf(-1)), -1
		var sum float64
		for c, s := range scalarDots(x, b) {
			v := float32(math.Abs(s))
			if c != skip && v == v {
				sum += float64(v)
			}
			if v > best && c != skip {
				best, arg = v, c
			}
		}
		return best, arg, sum
	},
	absInto: func(dst []float32, x, b []float64) {
		for c, s := range scalarDots(x, b) {
			dst[c] = float32(math.Abs(s))
			if math.IsNaN(s) {
				dst[c] = 0
			}
		}
	},
}

func scalarDots(x, b []float64) []float64 {
	n := len(b) / len(x)
	out := make([]float64, n)
	col := make([]float64, len(x))
	for c := range out {
		for i := range x {
			col[i] = b[i*n+c]
		}
		out[c] = mat.Dot(x, col)
	}
	return out
}

// kernelSets names the column kernels Allocate is pinned with.
var kernelSets = []struct {
	name string
	kern columnKernels
}{{"mat", matKernels}, {"scalar", scalarKernels}}

// TestCorrelationsBitIdenticalToFourRowBuild holds the correlations the
// K-major block yields on demand to the stored R×R matrix of the four-row
// build: each row's maximum over its live peers and its first argument,
// and each row's magnitudes, bit for bit, for nr from 1 to 1,021 (below,
// at and across the 64-column kernel width), through both kernel sets, with every row live and again after every third row
// has been removed (which compacts the block when nr ≥ 2).
func TestCorrelationsBitIdenticalToFourRowBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, nr := range []int{1, 2, 3, 5, 7, 8, 9, 12, 13, 15, 16, 17, 30, 63, 64, 65, 100, 128, 129, 257, 1021} {
		for _, k := range []int{1, 3, 12, 16} {
			psi := mat.New(nr, k)
			for i := 0; i < nr; i++ {
				row := psi.Row(i)
				switch {
				case i > 0 && rng.Intn(5) == 0: // a repeat, an exact tie
					copy(row, psi.Row(rng.Intn(i)))
				case i > 0 && rng.Intn(5) == 0: // a negation, a tie in |·|
					copy(row, psi.Row(rng.Intn(i)))
					mat.ScaleVec(-1, row)
				default:
					for j := range row {
						row[j] = rng.NormFloat64()
					}
				}
			}
			// The rows Allocate normalizes, as it normalizes them.
			u := mat.New(nr, k)
			rows := make([]int, nr)
			for i := range rows {
				rows[i] = i
				r := mat.CopyVec(psi.Row(i))
				mat.Normalize(r)
				u.SetRow(i, r)
			}
			gm, _, _ := correlations4(u)
			for _, ks := range kernelSets {
				name := fmt.Sprintf("nr=%d k=%d kernels=%s", nr, k, ks.name)
				blk := newCorrBlock(psi, rows)
				live := make([]bool, nr)
				for i := range live {
					live[i] = true
				}
				checkBlock(t, name, blk, ks.kern, gm, live)
				for i := 0; i < nr; i += 3 {
					blk.kill(i)
					live[i] = false
				}
				checkBlock(t, name+" after removals", blk, ks.kern, gm, live)
			}
		}
	}
}

// checkBlock compares every live row's maximum, argument and magnitudes
// from blk with the stored matrix gm restricted to the live rows.
func checkBlock(t *testing.T, name string, blk *corrBlock, kern columnKernels, gm []float32, live []bool) {
	t.Helper()
	nr := len(live)
	x := make([]float64, blk.k)
	vals := make([]float32, blk.n)
	for i := 0; i < nr; i++ {
		if !live[i] {
			continue
		}
		want, wantArg := float32(math.Inf(-1)), -1
		for j := 0; j < nr; j++ {
			if j != i && live[j] && gm[i*nr+j] > want {
				want, wantArg = gm[i*nr+j], j
			}
		}
		v, c := kern.argMax(blk.column(x, i), blk.data, int(blk.rowCol[i]))
		arg := -1
		if c >= 0 {
			arg = int(blk.colRow[c])
		}
		if math.Float32bits(v) != math.Float32bits(want) || arg != wantArg {
			t.Fatalf("%s: row %d max %v at %d, four-row build %v at %d", name, i, v, arg, want, wantArg)
		}
		kern.absInto(vals, blk.column(x, i), blk.data)
		for j := 0; j < nr; j++ {
			if j == i || !live[j] {
				continue
			}
			if got, want := vals[blk.rowCol[j]], gm[i*nr+j]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s: |G[%d][%d]| = %v, four-row build %v", name, i, j, got, want)
			}
		}
		for c, r := range blk.colRow {
			if r < 0 && vals[c] != 0 {
				t.Fatalf("%s: dead column %d reads %v, want 0", name, c, vals[c])
			}
		}
	}
}

// TestGreedyAllocatesNoCorrelationMatrix pins Allocate's memory at the
// paper's scale, a 3360×16 basis with M 24: the stored float32 correlation
// matrix alone was 45 MB; the K-major block is 0.43 MB, and everything one
// Allocate allocates stays below greedyAllocBound.
func TestGreedyAllocatesNoCorrelationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale placement skipped in -short")
	}
	const greedyAllocBound = 4 << 20
	psi := mat.RandomOrthonormal(3360, 16, rand.New(rand.NewSource(8)))
	in := Input{Psi: psi, M: 24}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sensors, err := (&Greedy{}).Allocate(in)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(sensors) != 24 {
		t.Fatalf("%d sensors, want 24", len(sensors))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= greedyAllocBound {
		t.Fatalf("Allocate allocated %d bytes, bound %d", got, greedyAllocBound)
	} else {
		t.Logf("Allocate allocated %d bytes (bound %d)", got, greedyAllocBound)
	}
}
