package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/workload"
)

// TestRobustDefaultMatrix pins the acceptance criterion of the robustness
// harness: the default configuration produces a train-family × eval-family
// reconstruction-error matrix over six distinct scenario specs on a
// generated 256-core floorplan.
func TestRobustDefaultMatrix(t *testing.T) {
	res, err := Robust(RobustConfig{Seed: 2012})
	if err != nil {
		t.Fatal(err)
	}
	if res.Floorplan != "manycore-256c" {
		t.Fatalf("floorplan %q, want the generated 256-core die", res.Floorplan)
	}
	if len(res.Names) != 6 {
		t.Fatalf("matrix covers %d families, want 6 (%v)", len(res.Names), res.Names)
	}
	seen := map[string]bool{}
	for _, n := range res.Names {
		if seen[n] {
			t.Fatalf("duplicate family %q in %v", n, res.Names)
		}
		seen[n] = true
	}
	for i := range res.Names {
		if len(res.MSE[i]) != 6 {
			t.Fatalf("row %d has %d entries", i, len(res.MSE[i]))
		}
		for j, v := range res.MSE[i] {
			if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("MSE[%d][%d] = %v; want positive finite", i, j, v)
			}
		}
		if !(res.Cond[i] >= 1) {
			t.Fatalf("cond[%d] = %v", i, res.Cond[i])
		}
	}
	if gap := res.GeneralizationGap(); !(gap > 0) || math.IsInf(gap, 0) {
		t.Fatalf("generalization gap %v", gap)
	}
	if !seen[res.MostRobustFamily()] {
		t.Fatalf("most robust family %q not among %v", res.MostRobustFamily(), res.Names)
	}
	out := res.String()
	for _, want := range []string{"manycore-256c", "train\\eval", "bursty", "most robust"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRobustRejectsDuplicateFamilies(t *testing.T) {
	a, _ := workload.Parse("web")
	b, _ := workload.Parse("web")
	fp, _ := floorplan.Manycore(4, 2, floorplan.Grid{W: 2, H: 2})
	_, err := Robust(RobustConfig{
		Floorplan: fp, Grid: floorplan.Grid{W: 8, H: 8},
		Snapshots: 8, KMax: 4, K: 2, M: 3,
		Specs: []*workload.Spec{a, b},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate families err = %v", err)
	}
}

func TestRobustSmallCustomConfig(t *testing.T) {
	// A non-default configuration (tiny die, two families) exercises the
	// explicit-field path.
	fp, err := floorplan.Manycore(16, 4, floorplan.Grid{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	web, _ := workload.Parse("web")
	idle, _ := workload.Parse("idle")
	res, err := Robust(RobustConfig{
		Floorplan: fp, Grid: floorplan.Grid{W: 12, H: 12},
		Snapshots: 30, KMax: 6, K: 4, M: 6, Seed: 7,
		Specs: []*workload.Spec{web, idle},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 2 || res.Names[0] != "web" || res.Names[1] != "idle" {
		t.Fatalf("names %v", res.Names)
	}
}

// TestRobustAdaptArmCutsGap is the adaptation acceptance pin: absorbing an
// adaptation stream of the deployed family (same sensors, re-folded
// operator) must cut the worst-case generalization gap by at least an order
// of magnitude on the small two-family configuration — the quantitative
// claim behind the daemon's online adaptation path.
func TestRobustAdaptArmCutsGap(t *testing.T) {
	fp, err := floorplan.Manycore(16, 4, floorplan.Grid{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	// compute vs wave is the most thermally divergent small pair: a scarce
	// training budget (16 snapshots) leaves a large cross-family gap, and a
	// long adaptation stream (160 snapshots, seed weight 2 so the stream
	// dominates the stale basis) recovers it.
	compute, _ := workload.Parse("compute")
	wave, _ := workload.Parse("wave")
	res, err := Robust(RobustConfig{
		Floorplan: fp, Grid: floorplan.Grid{W: 12, H: 12},
		Snapshots: 16, KMax: 6, K: 4, M: 6, Seed: 11,
		Specs: []*workload.Spec{compute, wave},
		Adapt: true, AdaptSnapshots: 160, AdaptSeedWeight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdaptedMSE == nil || len(res.AdaptedMSE) != 2 {
		t.Fatalf("adapt arm produced no matrix: %+v", res.AdaptedMSE)
	}
	for i := range res.AdaptedMSE {
		for j, v := range res.AdaptedMSE[i] {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("AdaptedMSE[%d][%d] = %v", i, j, v)
			}
			// Adaptation must actually help on the mismatched pairs.
			if i != j && v >= res.MSE[i][j] {
				t.Errorf("adaptation did not improve %s→%s: %g >= %g",
					res.Names[i], res.Names[j], v, res.MSE[i][j])
			}
		}
	}
	gap, adapted := res.GeneralizationGap(), res.AdaptedGeneralizationGap()
	cut := res.GapCut()
	t.Logf("gap %.3gx → adapted %.3gx (cut %.3gx)", gap, adapted, cut)
	if cut < 10 {
		t.Fatalf("adaptation cut the generalization gap only %.3gx (gap %.3gx → %.3gx), want >= 10x",
			cut, gap, adapted)
	}
	// The adapt arm must not perturb the base matrix contract.
	if s := res.String(); !strings.Contains(s, "gap cut") {
		t.Fatalf("String() omits the adaptation summary:\n%s", s)
	}
}
