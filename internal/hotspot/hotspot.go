// Package hotspot implements the thermal-management consumers of
// reconstructed maps that motivate the paper's introduction: hot-spot
// detection, worst-case spatial gradient extraction, threshold alarms with
// hysteresis, and per-block summaries a dynamic thermal manager acts on.
package hotspot

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/floorplan"
)

// Hottest returns the index and temperature of the hottest cell.
// Panics on an empty map.
func Hottest(x []float64) (int, float64) {
	if len(x) == 0 {
		panic("hotspot: empty map")
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best, x[best]
}

// GradientMagnitude returns the per-cell spatial gradient magnitude in
// °C per cell pitch, using central differences (one-sided at die edges).
// Large on-chip gradients stress interconnect and cause timing skew — the
// second failure mode the introduction names besides absolute hot spots.
func GradientMagnitude(g floorplan.Grid, x []float64) []float64 {
	if len(x) != g.N() {
		panic(fmt.Sprintf("hotspot: %d values for %d cells", len(x), g.N()))
	}
	out := make([]float64, g.N())
	for row := 0; row < g.H; row++ {
		for col := 0; col < g.W; col++ {
			dx := directional(g, x, row, col, 0, 1)
			dy := directional(g, x, row, col, 1, 0)
			out[g.Index(row, col)] = math.Hypot(dx, dy)
		}
	}
	return out
}

// directional computes the finite difference along the axis-aligned step
// (dr, dc): central where both neighbours exist, one-sided at edges.
func directional(g floorplan.Grid, x []float64, row, col, dr, dc int) float64 {
	r0, c0 := row-dr, col-dc
	r1, c1 := row+dr, col+dc
	ok0 := r0 >= 0 && c0 >= 0
	ok1 := r1 < g.H && c1 < g.W
	switch {
	case ok0 && ok1:
		return (x[g.Index(r1, c1)] - x[g.Index(r0, c0)]) / 2
	case ok1:
		return x[g.Index(r1, c1)] - x[g.Index(row, col)]
	case ok0:
		return x[g.Index(row, col)] - x[g.Index(r0, c0)]
	default:
		return 0
	}
}

// MaxGradient returns the largest spatial gradient magnitude and its cell.
func MaxGradient(g floorplan.Grid, x []float64) (cell int, magnitude float64) {
	grad := GradientMagnitude(g, x)
	return Hottest(grad)
}

// BlockMax returns each floorplan block's maximum temperature.
// Blocks covering no cells report NaN.
func BlockMax(r *floorplan.Raster, x []float64) []float64 {
	out := make([]float64, len(r.Plan.Blocks))
	for b := range out {
		cells := r.CellsOf(b)
		if len(cells) == 0 {
			out[b] = math.NaN()
			continue
		}
		m := x[cells[0]]
		for _, i := range cells[1:] {
			if x[i] > m {
				m = x[i]
			}
		}
		out[b] = m
	}
	return out
}

// Alarm is a threshold detector with hysteresis: it trips when the maximum
// temperature reaches Set and clears only when it falls below Clear,
// suppressing chatter around the threshold.
type Alarm struct {
	// Set and Clear are the trip and release temperatures; Set must exceed
	// Clear.
	Set, Clear float64

	active bool
	trips  int
}

// Update feeds the current maximum temperature and reports whether the
// alarm is active afterwards.
func (a *Alarm) Update(maxC float64) bool {
	if a.Set <= a.Clear {
		panic(fmt.Sprintf("hotspot: alarm Set %v must exceed Clear %v", a.Set, a.Clear))
	}
	switch {
	case !a.active && maxC >= a.Set:
		a.active = true
		a.trips++
	case a.active && maxC < a.Clear:
		a.active = false
	}
	return a.active
}

// Active reports the current alarm state.
func (a *Alarm) Active() bool { return a.active }

// Trips returns how many times the alarm has tripped since creation.
func (a *Alarm) Trips() int { return a.trips }

// Report is a one-map thermal summary for a dynamic thermal manager.
type Report struct {
	MaxC        float64
	MaxCell     int
	MinC        float64
	MeanC       float64
	MaxGradC    float64 // °C per cell pitch
	MaxGradCell int
	HotBlocks   []string // names of blocks whose max exceeds the threshold
}

// Summarize builds a Report for map x with the given hot-block threshold.
func Summarize(r *floorplan.Raster, x []float64, hotThresholdC float64) Report {
	cell, maxC := Hottest(x)
	var rep Report
	rep.MaxC = maxC
	rep.MaxCell = cell
	rep.MinC = x[0]
	var sum float64
	for _, v := range x {
		if v < rep.MinC {
			rep.MinC = v
		}
		sum += v
	}
	rep.MeanC = sum / float64(len(x))
	rep.MaxGradCell, rep.MaxGradC = MaxGradient(r.Grid, x)
	for b, m := range BlockMax(r, x) {
		if !math.IsNaN(m) && m >= hotThresholdC {
			rep.HotBlocks = append(rep.HotBlocks, r.Plan.Blocks[b].Name)
		}
	}
	sort.Strings(rep.HotBlocks)
	return rep
}
