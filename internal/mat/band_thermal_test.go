package mat_test

import (
	"fmt"
	"math"
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

// TestBandSolveBatchBitIdentical pins the multi-vector solve to SolveInto
// on A and G of every thermal grid (7×19 leaves n%4 = 2 rows outside the
// panels), for one to four right-hand sides, through every kernel this
// platform runs: each vector's solution must match its own SolveInto bit
// for bit, with dst apart from b and aliasing it, and allocate nothing.
func TestBandSolveBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, g := range thermalGrids {
		a, gm := thermal.NewModel(g, thermal.Config{}).SystemBands()
		for name, sys := range map[string]*mat.SymBand{"A": a, "G": gm} {
			n := 2 * g.N()
			for _, p := range bandPaths {
				if p.avx && !mat.HasAVX {
					continue
				}
				c, err := mat.NewBandCholeskyKernel(sys, p.avx)
				if err != nil {
					t.Fatal(err)
				}
				for vectors := 1; vectors <= 4; vectors++ {
					label := fmt.Sprintf("%dx%d %s/%s vectors=%d", g.W, g.H, name, p.name, vectors)
					b := make([][]float64, vectors)
					want := make([][]float64, vectors)
					got := make([][]float64, vectors)
					z := make([][]float64, vectors)
					for v := range b {
						b[v] = make([]float64, n)
						for i := range b[v] {
							b[v][i] = rng.NormFloat64() * 100
						}
						want[v] = make([]float64, n)
						c.SolveInto(want[v], b[v])
						got[v] = make([]float64, n)
						z[v] = append([]float64(nil), b[v]...)
					}
					c.SolveBatchInto(got, b)
					c.SolveBatchInto(z, z)
					for v := range want {
						for i := range want[v] {
							if math.Float64bits(got[v][i]) != math.Float64bits(want[v][i]) {
								t.Fatalf("%s: vector %d x[%d] = %v, SolveInto %v", label, v, i, got[v][i], want[v][i])
							}
							if math.Float64bits(z[v][i]) != math.Float64bits(want[v][i]) {
								t.Fatalf("%s: aliased vector %d x[%d] = %v, SolveInto %v", label, v, i, z[v][i], want[v][i])
							}
						}
					}
					if allocs := testing.AllocsPerRun(3, func() { c.SolveBatchInto(got, b) }); allocs != 0 {
						t.Fatalf("%s: %v allocs per solve, want 0", label, allocs)
					}
				}
			}
		}
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

// BenchmarkBandSolve times the two triangular sweeps of one backward-Euler
// step against the thermal model's factored A on the create-path grids,
// through each kernel: SolveInto of one right-hand side, and on the
// vectors=2 arms one SolveBatchInto of two, the lock step of two workload
// segments.
func BenchmarkBandSolve(b *testing.B) {
	for _, g := range benchGrids {
		a, _ := thermal.NewModel(g, thermal.Config{}).SystemBands()
		rng := rand.New(rand.NewSource(1))
		rhs := make([][]float64, 2)
		for v := range rhs {
			rhs[v] = make([]float64, 2*g.N()) // die and spreader unknowns
			for i := range rhs[v] {
				rhs[v][i] = rng.NormFloat64()
			}
		}
		for _, p := range bandPaths {
			for _, vectors := range []int{1, 2} {
				name := fmt.Sprintf("grid=%dx%d/path=%s", g.W, g.H, p.name)
				if vectors > 1 {
					name += fmt.Sprintf("/vectors=%d", vectors)
				}
				b.Run(name, func(b *testing.B) {
					if p.avx && !mat.HasAVX {
						b.Skip("no AVX on this CPU or platform")
					}
					c, err := mat.NewBandCholeskyKernel(a, p.avx)
					if err != nil {
						b.Fatal(err)
					}
					x := make([][]float64, vectors)
					for v := range x {
						x[v] = make([]float64, 2*g.N())
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if vectors == 1 {
							c.SolveInto(x[0], rhs[0])
						} else {
							c.SolveBatchInto(x, rhs[:vectors])
						}
					}
				})
			}
		}
	}
}
