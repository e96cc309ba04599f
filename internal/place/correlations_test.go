package place

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// The correlation build as it was with four rows per block, kept verbatim
// (renamed) as the reference the eight-row build must reproduce bit for bit
// (TestCorrelationsBitIdenticalToFourRowBuild).

// correlations4 returns Algorithm 1's row-correlation matrix of the
// normalized rows of u, R×R in float32: G[i][j] = |uᵢ·uⱼ| off the diagonal
// (the signed product when signed), and a diagonal of 0, or −∞ when signed
// so a row never selects itself. It also returns each row's largest
// off-diagonal entry and its column (the first on ties, −1 when there is
// none): the row maxima with every row still active.
//
// Rows are built four at a time as one batch product U·[uᵢ … uᵢ₊₃] through
// mat.MulVecBiasBatchInto against a zero bias: each entry is then a single
// dot product summed left to right from +0 — mat.Dot's sum, and the same
// one for G[i][j] and G[j][i] since the products commute — so both
// triangles come out exactly as the pairwise build would mirror them. The
// blocks are independent, so they fan out over the CPUs.
func correlations4(u *mat.Matrix, signed bool) (gm, rowMax []float32, rowArg []int) {
	nr := u.Rows()
	gm = make([]float32, nr*nr)
	rowMax = make([]float32, nr)
	rowArg = make([]int, nr)
	diag := float32(0)
	if signed {
		diag = float32(math.Inf(-1))
	}
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
					if !signed {
						v = math.Abs(v)
					}
					row[j] = float32(v)
					if j != i && row[j] > best {
						best = row[j]
						arg = j
					}
				}
				row[i] = diag
				rowMax[i], rowArg[i] = best, arg
			}
		}
	})
	return gm, rowMax, rowArg
}

func TestCorrelationsBitIdenticalToFourRowBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// Every nr%8 from small shapes up; K spans the kernels' widths. Some
	// rows repeat others, so the row maxima tie and their arguments must
	// still agree.
	for _, nr := range []int{1, 2, 3, 5, 7, 8, 9, 12, 13, 15, 16, 17, 30, 63, 100, 257, 1021} {
		for _, k := range []int{1, 3, 12, 16} {
			u := mat.New(nr, k)
			for i := 0; i < nr; i++ {
				row := u.Row(i)
				if i > 0 && rng.Intn(5) == 0 {
					copy(row, u.Row(rng.Intn(i)))
					continue
				}
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				mat.ScaleVec(1/mat.Norm2(row), row)
			}
			for _, signed := range []bool{false, true} {
				name := fmt.Sprintf("nr=%d k=%d signed=%v", nr, k, signed)
				gm, rowMax, rowArg := correlations(u, signed)
				wantGm, wantMax, wantArg := correlations4(u, signed)
				for i := range wantGm {
					if math.Float32bits(gm[i]) != math.Float32bits(wantGm[i]) {
						t.Fatalf("%s: G[%d][%d] = %v, four-row build %v", name, i/nr, i%nr, gm[i], wantGm[i])
					}
				}
				for i := range wantMax {
					if math.Float32bits(rowMax[i]) != math.Float32bits(wantMax[i]) || rowArg[i] != wantArg[i] {
						t.Fatalf("%s: row %d max %v at %d, four-row build %v at %d",
							name, i, rowMax[i], rowArg[i], wantMax[i], wantArg[i])
					}
				}
			}
		}
	}
}
