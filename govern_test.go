package eigenmaps

import "testing"

// TestT1GovernorCapsHotCores drives the facade governor with a map that
// heats one core past the ceiling and checks the cap lands on that core
// only, then releases after the map cools below the clear point.
func TestT1GovernorCapsHotCores(t *testing.T) {
	grid := Grid{W: 30, H: 28}
	gov, err := NewT1Governor(grid, GovernorOptions{CeilingC: 75})
	if err != nil {
		t.Fatal(err)
	}
	if gov.Cores() != 8 {
		t.Fatalf("T1 governor has %d cores, want 8", gov.Cores())
	}
	if gov.Policy() != "hysteresis" {
		t.Fatalf("default policy %q, want hysteresis", gov.Policy())
	}
	top := len(gov.Ladder()) - 1
	for _, l := range gov.Levels() {
		if l != top {
			t.Fatalf("fresh governor starts at level %d, want ladder top %d", l, top)
		}
	}

	cool := make([]float64, grid.N())
	for i := range cool {
		cool[i] = 50
	}
	levels := gov.Step(cool)
	if gov.Throttled() != 0 {
		t.Fatalf("%d cores throttled on a 50 °C map", gov.Throttled())
	}

	// Heat the top-left region (core rows of the T1 plan) past the ceiling.
	hot := make([]float64, grid.N())
	for i := range hot {
		hot[i] = 50
	}
	for x := 0; x < grid.W; x++ {
		hot[x] = 90 // top row crosses every core column
	}
	levels = gov.Step(hot)
	if gov.Throttled() == 0 {
		t.Fatal("no core throttled with 90 °C core cells and a 75 °C ceiling")
	}
	for _, l := range levels {
		if l < 0 || l > top {
			t.Fatalf("level %d outside ladder", l)
		}
	}

	// Hysteresis: 3 °C under the set point is inside the band — holds.
	for i := range hot {
		if hot[i] > 50 {
			hot[i] = 72
		}
	}
	gov.Step(hot)
	if gov.Throttled() == 0 {
		t.Fatal("hysteresis released inside the band")
	}
	// Well below the clear point — releases.
	gov.Step(cool)
	if gov.Throttled() != 0 {
		t.Fatalf("%d cores still throttled after cooling to 50 °C", gov.Throttled())
	}
}

// TestT1GovernorValidates covers the facade's error surface.
func TestT1GovernorValidates(t *testing.T) {
	grid := Grid{W: 30, H: 28}
	if _, err := NewT1Governor(grid, GovernorOptions{Policy: "nope", CeilingC: 75}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := NewT1Governor(grid, GovernorOptions{CeilingC: -4}); err == nil {
		t.Fatal("negative ceiling accepted")
	}
	if _, err := NewT1Governor(grid, GovernorOptions{CeilingC: 75, Ladder: []float64{1.0, 0.5}}); err == nil {
		t.Fatal("descending ladder accepted")
	}
	for _, p := range []string{"threshold", "hysteresis", "pi"} {
		if _, err := NewT1Governor(grid, GovernorOptions{Policy: p, CeilingC: 75}); err != nil {
			t.Fatalf("policy %q: %v", p, err)
		}
	}
}
