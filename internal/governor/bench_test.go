package governor

import (
	"testing"

	"repro/internal/floorplan"
)

// BenchmarkGovernStep measures one control step — per-core hottest-cell
// extraction plus the policy's cap decisions — on the manycore-256c die at
// the robustness suite's 32×32 grid. This is the increment the daemon's
// govern route adds per snapshot over a plain estimate.
func BenchmarkGovernStep(b *testing.B) {
	fp, err := floorplan.Manycore(256, 256, floorplan.Grid{W: 16, H: 16})
	if err != nil {
		b.Fatal(err)
	}
	raster := fp.Rasterize(floorplan.Grid{W: 32, H: 32})
	pol, err := NewPolicy("hysteresis", Params{CeilingC: 80})
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := NewController(pol, nil, CoreCells(fp, raster))
	if err != nil {
		b.Fatal(err)
	}
	mapC := make([]float64, 32*32)
	for i := range mapC {
		mapC[i] = 60 + 25*float64(i%7)/7 // straddles the band so latches flip
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapC[i%len(mapC)] += 1e-9 // defeat any memoization without realloc
		ctrl.Step(mapC)
	}
}

// BenchmarkControlStep measures the daemon's per-snapshot control work —
// StepInto the response's levels, counting throttled cores — for each
// policy on the t1 die at die-binary's 60×56 grid, over a stream whose
// cores ride the policies' setpoints.
func BenchmarkControlStep(b *testing.B) {
	fp := floorplan.UltraSparcT1()
	grid := floorplan.Grid{W: 60, H: 56}
	cells := CoreCells(fp, fp.Rasterize(grid))
	maps := make([][]float64, 64)
	for s := range maps {
		maps[s] = make([]float64, grid.W*grid.H)
		for i := range maps[s] {
			maps[s][i] = 70 + 12*float64((i*7+s*13)%17)/17
		}
	}
	for _, name := range policyNames {
		b.Run("policy="+name, func(b *testing.B) {
			pol, err := NewPolicy(name, Params{CeilingC: 80})
			if err != nil {
				b.Fatal(err)
			}
			ctrl, err := NewController(pol, nil, cells)
			if err != nil {
				b.Fatal(err)
			}
			levels := make([]int, ctrl.Cores())
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n += ctrl.StepInto(levels, maps[i%len(maps)])
			}
			if n < 0 {
				b.Fatal(n)
			}
		})
	}
}
