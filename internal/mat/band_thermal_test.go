package mat_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/thermal"
)

// thermalGrids are the production grids of the banded solver: t1 at paper
// scale (60×56), manycore-256c (32×32), the fleet's 16×14 and a tall 7×19.
var thermalGrids = []floorplan.Grid{{W: 60, H: 56}, {W: 32, H: 32}, {W: 16, H: 14}, {W: 7, H: 19}}

// TestBandCholeskyBitIdenticalOnThermalSystems pins the factor and solves of
// the thermal model's A = C/dt + G and G to the row-layout reference, bit
// for bit, through every kernel this platform runs.
func TestBandCholeskyBitIdenticalOnThermalSystems(t *testing.T) {
	for _, g := range thermalGrids {
		a, gm := thermal.NewModel(g, thermal.Config{}).SystemBands()
		mat.CheckBandBits(t, fmt.Sprintf("%dx%d A", g.W, g.H), a)
		mat.CheckBandBits(t, fmt.Sprintf("%dx%d G", g.W, g.H), gm)
	}
}

// bandPaths are the kernels the band benchmarks time.
var bandPaths = []struct {
	name string
	avx  bool
}{{"avx", true}, {"generic", false}}

// benchGrids are the two create-path dies: t1 at 60×56 (n 6720, bw 112) and
// manycore-256c at 32×32 (n 2048, bw 64).
var benchGrids = []floorplan.Grid{{W: 60, H: 56}, {W: 32, H: 32}}

// BenchmarkBandFactor times NewBandCholesky of the thermal model's A on
// the create-path grids, through each kernel.
func BenchmarkBandFactor(b *testing.B) {
	for _, g := range benchGrids {
		a, _ := thermal.NewModel(g, thermal.Config{}).SystemBands()
		for _, p := range bandPaths {
			b.Run(fmt.Sprintf("grid=%dx%d/path=%s", g.W, g.H, p.name), func(b *testing.B) {
				if p.avx && !mat.HasAVX {
					b.Skip("no AVX on this CPU or platform")
				}
				for i := 0; i < b.N; i++ {
					if _, err := mat.NewBandCholeskyKernel(a, p.avx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBandSolve times one SolveInto against the thermal model's
// factored A on the create-path grids, through each kernel: the two
// triangular sweeps of one backward-Euler step.
func BenchmarkBandSolve(b *testing.B) {
	for _, g := range benchGrids {
		a, _ := thermal.NewModel(g, thermal.Config{}).SystemBands()
		rhs := make([]float64, 2*g.N()) // die and spreader unknowns
		rng := rand.New(rand.NewSource(1))
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		for _, p := range bandPaths {
			b.Run(fmt.Sprintf("grid=%dx%d/path=%s", g.W, g.H, p.name), func(b *testing.B) {
				if p.avx && !mat.HasAVX {
					b.Skip("no AVX on this CPU or platform")
				}
				c, err := mat.NewBandCholeskyKernel(a, p.avx)
				if err != nil {
					b.Fatal(err)
				}
				x := make([]float64, len(rhs))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.SolveInto(x, rhs)
				}
			})
		}
	}
}
