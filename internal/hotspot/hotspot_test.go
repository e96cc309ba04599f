package hotspot

import (
	"math"
	"testing"

	"repro/internal/floorplan"
)

func TestHottest(t *testing.T) {
	idx, v := Hottest([]float64{1, 9, 3})
	if idx != 1 || v != 9 {
		t.Fatalf("Hottest = (%d, %v)", idx, v)
	}
}

func TestHottestPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Hottest(nil)
}

func TestGradientUniformMapIsZero(t *testing.T) {
	g := floorplan.Grid{W: 5, H: 4}
	x := make([]float64, g.N())
	for i := range x {
		x[i] = 70
	}
	for i, v := range GradientMagnitude(g, x) {
		if v != 0 {
			t.Fatalf("uniform map gradient %v at %d", v, i)
		}
	}
}

func TestGradientLinearRamp(t *testing.T) {
	// x[row,col] = 2*col → gradient 2 everywhere along the column axis.
	g := floorplan.Grid{W: 6, H: 3}
	x := make([]float64, g.N())
	for row := 0; row < g.H; row++ {
		for col := 0; col < g.W; col++ {
			x[g.Index(row, col)] = 2 * float64(col)
		}
	}
	grad := GradientMagnitude(g, x)
	for i, v := range grad {
		if math.Abs(v-2) > 1e-12 {
			t.Fatalf("ramp gradient %v at %d, want 2", v, i)
		}
	}
}

func TestGradientStepEdge(t *testing.T) {
	// A hot right half creates the max gradient at the boundary columns.
	g := floorplan.Grid{W: 8, H: 4}
	x := make([]float64, g.N())
	for row := 0; row < g.H; row++ {
		for col := 4; col < 8; col++ {
			x[g.Index(row, col)] = 40
		}
	}
	cell, mag := MaxGradient(g, x)
	_, col := g.RowCol(cell)
	if col < 3 || col > 4 {
		t.Fatalf("max gradient at column %d, want boundary (3 or 4)", col)
	}
	if mag < 10 {
		t.Fatalf("max gradient %v too small", mag)
	}
}

func TestBlockMaxAndMean(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	g := floorplan.Grid{W: 12, H: 14}
	r := fp.Rasterize(g)
	x := make([]float64, g.N())
	// Heat exactly one core block.
	coreIdx := fp.BlockIndex("core2")
	for _, i := range r.CellsOf(coreIdx) {
		x[i] = 95
	}
	maxs := BlockMax(r, x)
	if maxs[coreIdx] != 95 {
		t.Fatalf("core2 max = %v", maxs[coreIdx])
	}
	other := fp.BlockIndex("fpu")
	if maxs[other] != 0 {
		t.Fatalf("fpu max = %v, want 0", maxs[other])
	}
}

func TestAlarmHysteresis(t *testing.T) {
	a := &Alarm{Set: 85, Clear: 80}
	if a.Update(84.9) {
		t.Fatal("tripped below Set")
	}
	if !a.Update(85) {
		t.Fatal("did not trip at Set")
	}
	if !a.Update(82) {
		t.Fatal("cleared above Clear — hysteresis broken")
	}
	if a.Update(79.9) {
		t.Fatal("did not clear below Clear")
	}
	if !a.Update(90) {
		t.Fatal("did not re-trip")
	}
	if a.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", a.Trips())
	}
	if !a.Active() {
		t.Fatal("Active() disagrees")
	}
}

func TestAlarmPanicsOnBadThresholds(t *testing.T) {
	a := &Alarm{Set: 80, Clear: 85}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Update(90)
}

func TestSummarize(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	g := floorplan.Grid{W: 12, H: 14}
	r := fp.Rasterize(g)
	x := make([]float64, g.N())
	for i := range x {
		x[i] = 50
	}
	hot := fp.BlockIndex("core5")
	for _, i := range r.CellsOf(hot) {
		x[i] = 92
	}
	rep := Summarize(r, x, 90)
	if rep.MaxC != 92 {
		t.Fatalf("MaxC = %v", rep.MaxC)
	}
	if rep.MinC != 50 {
		t.Fatalf("MinC = %v", rep.MinC)
	}
	if rep.MeanC <= 50 || rep.MeanC >= 92 {
		t.Fatalf("MeanC = %v", rep.MeanC)
	}
	if len(rep.HotBlocks) != 1 || rep.HotBlocks[0] != "core5" {
		t.Fatalf("HotBlocks = %v", rep.HotBlocks)
	}
	if rep.MaxGradC <= 0 {
		t.Fatal("gradient missing")
	}
	if x[rep.MaxCell] != 92 {
		t.Fatal("MaxCell not in the hot block")
	}
}
