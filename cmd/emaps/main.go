// Command emaps runs the EigenMaps pipeline on a dataset: train a basis,
// allocate sensors, and report reconstruction quality (optionally under
// measurement noise and placement constraints).
//
// Usage:
//
//	emaps -dataset maps.emds [-m 4] [-k 0 (=M)] [-basis eigenmaps|dct|dct-zigzag]
//	      [-alloc greedy|energy|random|uniform] [-snr 0 (=noiseless, dB)]
//	      [-mask-cache] [-kmax 40] [-show-layout]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/place"
	"repro/internal/recon"
	"repro/internal/render"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emaps: ")

	var (
		dsPath    = flag.String("dataset", "", "dataset file produced by thermsim (required)")
		m         = flag.Int("m", 4, "number of sensors M")
		k         = flag.Int("k", 0, "subspace dimension K (0 = use M)")
		kmax      = flag.Int("kmax", 40, "basis size to train")
		basisName = flag.String("basis", "eigenmaps", "basis family: eigenmaps|dct|dct-zigzag")
		allocName = flag.String("alloc", "greedy", "allocator: greedy|energy|random|uniform|d-optimal")
		snr       = flag.Float64("snr", 0, "measurement SNR in dB (0 = noiseless)")
		seed      = flag.Int64("seed", 1, "seed for training/noise/random allocation")
		maskCache = flag.Bool("mask-cache", false, "forbid sensor placement over L2 caches (Fig. 6 constraint)")
		showLay   = flag.Bool("show-layout", false, "print the sensor layout over the floorplan")
		bestK     = flag.Bool("best-k", false, "sweep K and report the MSE-optimal choice")
	)
	flag.Parse()
	if *dsPath == "" {
		log.Fatal("-dataset is required (generate one with thermsim)")
	}

	ds, err := dataset.LoadFile(*dsPath)
	if err != nil {
		log.Fatal(err)
	}
	st := ds.Stats()
	fmt.Printf("dataset: T=%d, N=%d (%dx%d), range %.2f..%.2f C\n",
		st.T, st.N, ds.Grid.H, ds.Grid.W, st.MinC, st.MaxC)

	kind := core.BasisEigenMaps
	switch *basisName {
	case "eigenmaps":
	case "dct":
		kind = core.BasisDCT
	case "dct-zigzag":
		kind = core.BasisDCTZigZag
	default:
		log.Fatalf("unknown basis %q", *basisName)
	}
	model, err := core.Train(ds, core.TrainOptions{KMax: *kmax, Kind: kind, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %s basis, KMax=%d\n", kind, model.Basis.KMax())

	alloc, err := place.Parse(*allocName, *seed)
	if err != nil {
		log.Fatal(err)
	}

	var mask []bool
	if *maskCache {
		raster := floorplan.UltraSparcT1().Rasterize(ds.Grid)
		mask = raster.MaskExcludingKinds(floorplan.KindCache)
	}

	kUse := *k
	if kUse == 0 {
		kUse = *m
	}
	if kUse > model.Basis.KMax() {
		kUse = model.Basis.KMax()
	}
	sensors, err := model.PlaceSensors(*m, core.PlaceOptions{K: kUse, Mask: mask, Allocator: alloc})
	if err != nil {
		log.Fatal(err)
	}
	if len(sensors) > *m {
		sensors = sensors[:*m]
	}
	fmt.Printf("%s allocation: sensors at cells %v\n", alloc.Name(), sensors)

	cfg := recon.EvalConfig{Seed: *seed}
	if *snr > 0 && !math.IsInf(*snr, 1) {
		cfg.SNRdB = *snr
		cfg.NoisePresent = true
	}

	if *bestK {
		kb, res, err := model.BestK(ds, sensors, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("best K=%d: MSE=%.6g C^2, MAX|e|=%.3f C, kappa=%.3g\n", kb, res.MSE, res.MaxAbs, res.Cond)
	} else {
		mon, err := model.NewMonitor(kUse, sensors)
		if err != nil {
			log.Fatal(err)
		}
		res, err := recon.Evaluate(mon.Reconstructor(), ds, cfg)
		if err != nil {
			log.Fatal(err)
		}
		noiseNote := "noiseless"
		if cfg.NoisePresent {
			noiseNote = fmt.Sprintf("SNR %.1f dB", cfg.SNRdB)
		}
		fmt.Printf("K=%d, M=%d, %s: MSE=%.6g C^2, MAX|e|=%.3f C, kappa=%.3g\n",
			res.K, res.M, noiseNote, res.MSE, res.MaxAbs, res.Cond)
	}

	if *showLay {
		raster := floorplan.UltraSparcT1().Rasterize(ds.Grid)
		fmt.Println("\nsensor layout (c=core, $=cache, x=crossbar, f=fpu, S=sensor):")
		fmt.Print(render.SensorMap(raster, sensors))
	}
}
