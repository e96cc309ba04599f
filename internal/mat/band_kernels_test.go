package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bit-identity pins for the banded Cholesky: the panel-layout factor and
// its solves must reproduce the row-layout reference of band_ref_test.go
// bit for bit, through the generic kernels and, where the CPU has it, the
// AVX ones. The thermal model's matrices are pinned the same way from the
// external test package (band_thermal_test.go).

// lower returns L[i][j] as the forward sweep stores it: from the forward
// panels, or from the rows of L outside them.
func (c *BandCholesky) lower(i, j int) float64 {
	bw := c.bw
	if j > i || i-j > bw {
		return 0
	}
	if i < 4*c.nb {
		bi := i &^ 3
		p := c.fwd[(i/4)*4*(bw+4):]
		if j >= bi {
			return p[4*(j-bi)+i-bi]
		}
		return p[16+4*(j-bi+bw)+i-bi]
	}
	return c.lrow[(i-4*c.nb)*(bw+1)+j-i+bw]
}

// transposed returns Lᵀ[i][j] = L[j][i] as the backward sweep stores it:
// from the backward panels, or from the rows of Lᵀ outside them.
func (c *BandCholesky) transposed(i, j int) float64 {
	n, bw := c.n, c.bw
	if j < i || j-i > bw {
		return 0
	}
	if i < n-4*c.nb {
		return c.urow[i*(bw+1)+j-i]
	}
	k := (n - 1 - i) / 4
	top := n - 1 - 4*k
	p := c.bwd[k*4*(bw+4):]
	if j <= top {
		return p[4*(top-j)+top-i]
	}
	return p[16+4*(j-top-1)+top-i]
}

// bandKernels lists the kernels this platform can run.
func bandKernels() map[string]bool {
	ks := map[string]bool{"generic": false}
	if hasAVX {
		ks["avx"] = true
	}
	return ks
}

// spreadRHS draws count right-hand sides of length n whose entries span
// 1e-4 … 1e4 in magnitude, with both signs.
func spreadRHS(n, count int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, count)
	for k := range out {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * math.Pow(10, -4+8*rng.Float64())
		}
		out[k] = b
	}
	return out
}

func sameBit(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// checkBandBits factors a with the reference and with every kernel, and
// fails unless every entry of both stored copies of L, every solve of
// spread right-hand sides and every aliased solve SolveInto(z, z) match the
// reference bit for bit.
func checkBandBits(t *testing.T, name string, a *SymBand) {
	t.Helper()
	ref, refErr := refNewBandCholesky(a)
	rhs := spreadRHS(a.n, 3, rand.New(rand.NewSource(int64(a.n*131+a.bw))))
	want := make([][]float64, len(rhs))
	if refErr == nil {
		for k, b := range rhs {
			want[k] = make([]float64, a.n)
			ref.SolveInto(want[k], b)
		}
	}
	for kname, avx := range bandKernels() {
		c, err := newBandCholesky(a, avx)
		if err != refErr {
			t.Fatalf("%s/%s: error %v, reference %v", name, kname, err, refErr)
		}
		if err != nil {
			continue
		}
		n, bw := a.n, a.bw
		for i := 0; i < n; i++ {
			for j := max(0, i-bw); j <= i; j++ {
				w := ref.l[i*ref.stride+j-i+bw+3]
				if got := c.lower(i, j); !sameBit(got, w) {
					t.Fatalf("%s/%s: L[%d][%d] = %v (%#x), reference %v (%#x)",
						name, kname, i, j, got, math.Float64bits(got), w, math.Float64bits(w))
				}
				if got := c.transposed(j, i); !sameBit(got, w) {
					t.Fatalf("%s/%s: Lᵀ[%d][%d] = %v (%#x), reference %v (%#x)",
						name, kname, j, i, got, math.Float64bits(got), w, math.Float64bits(w))
				}
			}
		}
		for k, b := range rhs {
			got := c.Solve(b)
			z := append([]float64(nil), b...)
			c.SolveInto(z, z)
			for i := range got {
				if !sameBit(got[i], want[k][i]) {
					t.Fatalf("%s/%s: rhs %d x[%d] = %v (%#x), reference %v (%#x)", name, kname, k, i,
						got[i], math.Float64bits(got[i]), want[k][i], math.Float64bits(want[k][i]))
				}
				if !sameBit(z[i], got[i]) {
					t.Fatalf("%s/%s: rhs %d aliased x[%d] = %v, unaliased %v", name, kname, k, i, z[i], got[i])
				}
			}
		}
	}
}

func TestBandCholeskyBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// n%4 covers every count of rows left outside the panels; bw straddles
	// the narrow fallback (bw < 8) and the panel window's odd/even tail.
	for _, n := range []int{40, 41, 42, 43, 120, 121, 122, 123} {
		for _, bw := range []int{0, 1, 7, 8, 9, 16, 17, n - 1} {
			checkBandBits(t, fmt.Sprintf("n=%d bw=%d", n, bw), randomSPDBand(n, bw, rng))
		}
	}
}

func TestBandCholeskyRejectsLikeReference(t *testing.T) {
	// Indefinite at a row inside the panels: both kernels must stop with
	// ErrSingular, as the reference does.
	a := randomSPDBand(48, 9, rand.New(rand.NewSource(29)))
	a.Set(30, 30, -1)
	checkBandBits(t, "indefinite", a)
}

func TestBandDotBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 0; n <= 67; n++ {
		a, b := edgeVec(rng, n), edgeVec(rng, n)
		want := refDot4(a, b)
		for kname, avx := range bandKernels() {
			if got := bandDot(a, b, avx); !sameBit(got, want) {
				t.Fatalf("%s n=%d: %v (%#x), reference %v (%#x)", kname, n,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestPanelDotsBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for m := 0; m <= 41; m++ {
		x := edgeVec(rng, m)
		rows := [4][]float64{edgeVec(rng, m), edgeVec(rng, m), edgeVec(rng, m), edgeVec(rng, m)}
		p := make([]float64, 4*m)
		for t2 := 0; t2 < m; t2++ {
			for r := range rows {
				p[4*t2+r] = rows[r][t2]
			}
		}
		var want [4]float64
		want[0], want[1], want[2], want[3] = refQuadDot2(rows[0], rows[1], rows[2], rows[3], x)
		c := &BandCholesky{}
		for kname, avx := range bandKernels() {
			c.avx = avx
			var got [4]float64
			got[0], got[1], got[2], got[3] = c.panelDots(p, x)
			for r := range got {
				if !sameBit(got[r], want[r]) {
					t.Fatalf("%s m=%d row %d: %v (%#x), reference %v (%#x)", kname, m, r,
						got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
				}
			}
		}
	}
}
