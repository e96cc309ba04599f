package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/place"
	"repro/internal/recon"
)

var (
	dsOnce sync.Once
	dsVal  *dataset.Dataset
	dsErr  error
)

func testDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		dsVal, dsErr = dataset.Generate(floorplan.UltraSparcT1(), dataset.GenConfig{
			Grid:      floorplan.Grid{W: 14, H: 12},
			Snapshots: 140,
			Seed:      21,
		})
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

func trainEigen(t *testing.T, kmax int) *Model {
	t.Helper()
	m, err := Train(testDS(t), TrainOptions{KMax: kmax, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainAllKinds(t *testing.T) {
	ds := testDS(t)
	for _, kind := range []BasisKind{BasisEigenMaps, BasisDCT, BasisDCTZigZag} {
		m, err := Train(ds, TrainOptions{KMax: 8, Kind: kind, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if m.Basis.KMax() != 8 {
			t.Fatalf("%v: KMax %d", kind, m.Basis.KMax())
		}
		if len(m.Energy) != ds.N() {
			t.Fatalf("%v: energy length %d", kind, len(m.Energy))
		}
		for _, e := range m.Energy {
			if e < 0 {
				t.Fatalf("%v: negative energy", kind)
			}
		}
	}
}

func TestTrainUnknownKind(t *testing.T) {
	if _, err := Train(testDS(t), TrainOptions{Kind: BasisKind(99)}); err == nil {
		t.Fatal("expected error")
	}
}

func TestTrainRejectsDegenerateOptions(t *testing.T) {
	ds := testDS(t)
	single := &dataset.Dataset{Grid: ds.Grid, Maps: ds.Maps.SelectRows([]int{0})}
	for _, tc := range []struct {
		name   string
		opt    TrainOptions
		on     *dataset.Dataset
		option string
	}{
		{"single snapshot", TrainOptions{KMax: 4}, single, "Ensemble"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Train(tc.on, tc.opt)
			if err == nil {
				t.Fatal("expected error")
			}
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("error %v does not match ErrInvalidOptions", err)
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v is not an *OptionError", err)
			}
			if oe.Option != tc.option {
				t.Fatalf("option = %q, want %q (%v)", oe.Option, tc.option, err)
			}
		})
	}
}

func TestTrainKMaxClampsToT(t *testing.T) {
	ds := testDS(t)
	tiny := &dataset.Dataset{Grid: ds.Grid, Maps: ds.Maps.SelectRows([]int{0, 1, 2, 3, 4})}
	m, err := Train(tiny, TrainOptions{KMax: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Basis.KMax() > 5 {
		t.Fatalf("KMax %d exceeds T=5", m.Basis.KMax())
	}
}

func TestBasisKindString(t *testing.T) {
	if BasisEigenMaps.String() != "eigenmaps" || BasisDCT.String() != "dct-energy" ||
		BasisDCTZigZag.String() != "dct-zigzag" || BasisKind(7).String() != "BasisKind(7)" {
		t.Fatal("kind names wrong")
	}
}

func TestPlaceSensorsDefaultsToGreedyKM(t *testing.T) {
	m := trainEigen(t, 10)
	sensors, err := m.PlaceSensors(6, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sensors) < 6 {
		t.Fatalf("%d sensors", len(sensors))
	}
}

func TestPlaceSensorsKExceedsM(t *testing.T) {
	m := trainEigen(t, 10)
	if _, err := m.PlaceSensors(4, PlaceOptions{K: 8}); err == nil {
		t.Fatal("K>M must fail")
	}
}

func TestPlaceSensorsWithMaskAndAllocators(t *testing.T) {
	m := trainEigen(t, 10)
	raster := floorplan.UltraSparcT1().Rasterize(m.Grid)
	mask := raster.MaskExcludingKinds(floorplan.KindCache)
	for _, alloc := range []place.Allocator{
		&place.Greedy{}, &place.EnergyCenter{}, &place.Random{Seed: 2}, &place.Uniform{},
	} {
		sensors, err := m.PlaceSensors(6, PlaceOptions{Mask: mask, Allocator: alloc})
		if err != nil {
			t.Fatalf("%s: %v", alloc.Name(), err)
		}
		for _, s := range sensors {
			if !mask[s] {
				t.Fatalf("%s violated mask at %d", alloc.Name(), s)
			}
		}
	}
}

func TestMonitorEstimate(t *testing.T) {
	m := trainEigen(t, 10)
	ds := testDS(t)
	sensors, err := m.PlaceSensors(8, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := m.NewMonitor(8, sensors[:8])
	if err != nil {
		t.Fatal(err)
	}
	if mon.K() != 8 || len(mon.Sensors()) != 8 {
		t.Fatal("accessors wrong")
	}
	cond, err := mon.Cond()
	if err != nil || cond < 1 {
		t.Fatalf("cond %v err %v", cond, err)
	}
	x := ds.Map(7)
	est, err := mon.Estimate(mon.Sample(x))
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i := range x {
		d := x[i] - est[i]
		mse += d * d
	}
	mse /= float64(len(x))
	if mse > 10 {
		t.Fatalf("monitor MSE %v too large", mse)
	}
	if mon.Reconstructor() == nil {
		t.Fatal("Reconstructor accessor nil")
	}
}

func TestBestKPrefersSmallKUnderNoise(t *testing.T) {
	m := trainEigen(t, 12)
	ds := testDS(t)
	sensors, err := m.PlaceSensors(12, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sensors = sensors[:12]
	kClean, _, err := m.BestK(ds, sensors, recon.EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	kNoisy, resNoisy, err := m.BestK(ds, sensors, recon.EvalConfig{SNRdB: 10, NoisePresent: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if kNoisy > kClean {
		t.Fatalf("noisy best K=%d above clean best K=%d — ε/ε_r trade-off inverted", kNoisy, kClean)
	}
	if resNoisy.MSE <= 0 || math.IsNaN(resNoisy.MSE) {
		t.Fatalf("noisy MSE %v", resNoisy.MSE)
	}
}

func TestBestKNoUsableK(t *testing.T) {
	m := trainEigen(t, 4)
	ds := testDS(t)
	// Two sensors on the same cell: K=2 is rank-deficient, K=1 works, so
	// BestK succeeds; verify the error path with an empty sensor list.
	if _, _, err := m.BestK(ds, nil, recon.EvalConfig{}); !errors.Is(err, ErrNoUsableK) {
		t.Fatalf("err = %v, want ErrNoUsableK", err)
	}
}

func TestEnergyMapMatchesVariance(t *testing.T) {
	m := trainEigen(t, 6)
	ds := testDS(t)
	x, _ := ds.Centered()
	// Spot-check a few cells.
	for _, i := range []int{0, 17, 100} {
		var s float64
		for j := 0; j < x.Rows(); j++ {
			s += x.At(j, i) * x.At(j, i)
		}
		s /= float64(x.Rows())
		if math.Abs(s-m.Energy[i]) > 1e-10 {
			t.Fatalf("energy[%d] = %v, want %v", i, m.Energy[i], s)
		}
	}
}

func TestTrainRejectsNaNDataset(t *testing.T) {
	ds := testDS(t)
	bad := &dataset.Dataset{Grid: ds.Grid, Maps: ds.Maps.Clone()}
	bad.Maps.Set(0, 0, math.NaN())
	if _, err := Train(bad, TrainOptions{KMax: 4}); err == nil {
		t.Fatal("expected validation error")
	}
}
