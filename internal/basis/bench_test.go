package basis

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/power"
)

// BenchmarkTrainSides times both sides of the PCA duality, each forced, on
// two T1 ensembles: 40×20 cells with T 200 at KMax 40, the paper's K, where
// the covariance iteration's block is at its widest (the root package's
// BenchmarkTrain/auto trains the same shape on the side ResolvePCAMethod
// picks), and the experiment suite's quick 24×22 ensemble with T 240 at
// KMax 12, whose Gram side is the arm the rule turns down there (the root
// package's BenchmarkAblationSubspaceIteration times the side it takes).
// They track the crossover ResolvePCAMethod encodes, for a re-fit when the
// kernels change.
func BenchmarkTrainSides(b *testing.B) {
	ensembles := map[string]*dataset.Dataset{}
	ensemble := func(b *testing.B, name string) *dataset.Dataset {
		if ds := ensembles[name]; ds != nil {
			return ds
		}
		cfg := dataset.GenConfig{Grid: floorplan.Grid{W: 40, H: 20}, Snapshots: 200, Seed: 12}
		if name == "quick-24x22" {
			cfg = dataset.GenConfig{Grid: floorplan.Grid{W: 24, H: 22}, Snapshots: 240, Seed: 2012,
				Power: power.Config{LoadCoupling: power.DefaultLoadCoupling}}
		}
		ds, err := dataset.Generate(floorplan.UltraSparcT1(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		ensembles[name] = ds
		return ds
	}
	for _, arm := range []struct {
		ensemble string
		kmax     int
		seed     int64
		side     PCAMethod
	}{
		{"train-40x20", 40, 12, PCACovariance},
		{"train-40x20", 40, 12, PCAGram},
		{"quick-24x22", 12, 1, PCAGram},
	} {
		b.Run(arm.ensemble+"/"+arm.side.String(), func(b *testing.B) {
			ds := ensemble(b, arm.ensemble)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := mat.SubspaceOptions{Rand: rand.New(rand.NewSource(arm.seed))}
				if _, err := trainPCASide(ds, arm.kmax, arm.side, opts, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
