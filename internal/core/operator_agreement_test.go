package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/track"
	"repro/internal/workload"
)

// The served operator and the QR reference (Coefficients, then the basis
// lift) both realize Theorem 1 and differ only in floating-point operation
// order: per cell both paths run O(K·M) flops over O(1)-magnitude basis
// entries, so their results agree to ~1e-14 relative.
// The 1e-12 bound below leaves two orders of margin for ill-conditioned
// layouts while still catching any real algebra defect, which would show up
// at O(1). Coverage spans both bundled floorplans × the catalog's workload
// scenarios × a Kalman-tracked serving sequence.
const agreeTol = 1e-12

// qrReference is the two-stage estimate the monitor's folded operator is
// pinned against: QR back-substitution for α̂, then x̃ = mean + Ψ_K α̂.
func qrReference(t *testing.T, mon *Monitor, xS []float64) []float64 {
	t.Helper()
	rec := mon.Reconstructor()
	alpha, err := rec.Coefficients(xS)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, mon.N())
	rec.Basis().SynthesizeInto(x, alpha)
	return x
}

func relDiff(a, b []float64) float64 {
	var diff, scale float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > diff {
			diff = d
		}
		if m := math.Abs(a[i]); m > scale {
			scale = m
		}
	}
	if scale < 1 {
		scale = 1
	}
	return diff / scale
}

func TestOperatorQRAgreementAcrossFloorplansAndScenarios(t *testing.T) {
	floorplans := []*floorplan.Floorplan{floorplan.UltraSparcT1(), floorplan.AthlonDualCore()}
	scenarios := []string{"web", "compute", "mixed", "idle"}
	for _, fp := range floorplans {
		for _, scen := range scenarios {
			spec := workload.Preset(scen)
			if spec == nil {
				t.Fatalf("scenario %q missing from the registry", scen)
			}
			ds, err := dataset.Generate(fp, dataset.GenConfig{
				Grid: floorplan.Grid{W: 12, H: 10}, Snapshots: 40, Seed: 11,
				Specs: []*workload.Spec{spec},
			})
			if err != nil {
				t.Fatalf("%s/%s: generate: %v", fp.Name, scen, err)
			}
			model, err := Train(ds, TrainOptions{KMax: 8, Seed: 11})
			if err != nil {
				t.Fatalf("%s/%s: train: %v", fp.Name, scen, err)
			}
			sensors, err := model.PlaceSensors(8, PlaceOptions{K: 4})
			if err != nil {
				t.Fatalf("%s/%s: place: %v", fp.Name, scen, err)
			}
			mon, err := model.NewMonitor(4, sensors)
			if err != nil {
				t.Fatalf("%s/%s: monitor: %v", fp.Name, scen, err)
			}
			op := make([]float64, mon.N())
			for j := 0; j < 10; j++ {
				xS := mon.Sample(ds.Map(j))
				if err := mon.EstimateInto(op, xS); err != nil {
					t.Fatal(err)
				}
				if d := relDiff(qrReference(t, mon, xS), op); d > agreeTol {
					t.Fatalf("%s/%s map %d: operator and QR reference disagree by %g relative", fp.Name, scen, j, d)
				}
			}
		}
	}
}

// Agreement also holds inside a tracked serving sequence: the Kalman filter
// smooths readings over time independently of the reconstruction, and
// per-step operator estimates stay within the pinned tolerance of the QR
// reference.
func TestOperatorQRAgreementUnderTracking(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	ds, err := dataset.Generate(fp, dataset.GenConfig{
		Grid: floorplan.Grid{W: 12, H: 10}, Snapshots: 60, Seed: 5,
		Specs: []*workload.Spec{workload.Preset("mixed")},
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := Train(ds, TrainOptions{KMax: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sensors, err := model.PlaceSensors(8, PlaceOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := model.NewMonitor(4, sensors)
	if err != nil {
		t.Fatal(err)
	}
	kf, err := track.NewKalman(model.Basis, 4, sensors, track.Config{})
	if err != nil {
		t.Fatal(err)
	}
	op := make([]float64, mon.N())
	for j := 0; j < 30; j++ {
		xS := mon.Sample(ds.Map(j))
		if _, err := kf.Step(xS); err != nil {
			t.Fatalf("step %d: %v", j, err)
		}
		if err := mon.EstimateInto(op, xS); err != nil {
			t.Fatal(err)
		}
		if d := relDiff(qrReference(t, mon, xS), op); d > agreeTol {
			t.Fatalf("step %d: operator and QR reference disagree by %g relative", j, d)
		}
	}
}
