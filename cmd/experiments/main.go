// Command experiments regenerates every figure of the paper's evaluation
// section plus the headline claims, printing the series/rows each figure
// plots. With -pgm-dir it also writes PGM images for the visual figures
// (2, 4 and 6).
//
// Usage:
//
//	experiments [-quick] [-dataset maps.emds] [-figs 2,3a,3b,3c,4,5,6,headline]
//	            [-pgm-dir out/]
//
// Without -dataset the ensemble is simulated in-process (and optionally
// cached with -save-dataset).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/render"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		quick   = flag.Bool("quick", false, "use the reduced quick configuration")
		dsPath  = flag.String("dataset", "", "load the ensemble from this file instead of simulating")
		dsSave  = flag.String("save-dataset", "", "after simulating, cache the ensemble here")
		figs    = flag.String("figs", "2,3a,3b,3c,4,5,6,headline", "comma-separated figure list")
		pgmDir  = flag.String("pgm-dir", "", "write PGM images of the visual figures to this directory")
		kmax    = flag.Int("kmax", 0, "override KMax")
		seedArg = flag.Int64("seed", 0, "override seed")

		specFiles = flag.String("scenario-spec", "", "comma-separated JSON workload-spec files replacing the default scenario mix")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *kmax > 0 {
		cfg.KMax = *kmax
	}
	if *seedArg != 0 {
		cfg.Seed = *seedArg
	}
	fileSpecs, ferr := workload.DecodeFiles(*specFiles)
	if ferr != nil {
		log.Fatal(ferr)
	}
	cfg.Specs = append(cfg.Specs, fileSpecs...)

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		if f = strings.TrimSpace(f); f != "" {
			want[f] = true
		}
	}
	// The robust and governor harnesses generate their own ensembles and
	// models; only the other figures need the shared paper-scale environment.
	needEnv := false
	for f := range want {
		if f != "robust" && f != "governor" {
			needEnv = true
		}
	}

	start := time.Now()
	var env *experiments.Env
	var err error
	if !needEnv {
		env = &experiments.Env{Cfg: cfg}
	} else if *dsPath != "" {
		ds, lerr := dataset.LoadFile(*dsPath)
		if lerr != nil {
			log.Fatal(lerr)
		}
		env, err = experiments.NewEnvWithDataset(cfg, ds)
	} else {
		env, err = experiments.NewEnv(cfg)
		if err == nil && *dsSave != "" {
			if serr := env.DS.SaveFile(*dsSave); serr != nil {
				log.Printf("warning: caching dataset: %v", serr)
			}
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	if needEnv {
		fmt.Printf("environment ready in %v (T=%d, N=%d, KMax=%d)\n",
			time.Since(start).Round(time.Millisecond), env.DS.T(), env.DS.N(), env.Cfg.KMax)
		fmt.Printf("  simulate %v · train eigenmaps %v [%v] · train k-lse %v\n\n",
			env.Timing.Simulate.Round(time.Millisecond),
			env.Timing.TrainPCA.Round(time.Millisecond), env.Timing.PCAMethod,
			env.Timing.TrainKLSE.Round(time.Millisecond))
	}
	run := func(name string, fn func() (fmt.Stringer, error)) {
		if !want[name] {
			return
		}
		t0 := time.Now()
		res, err := fn()
		if err != nil {
			log.Fatalf("fig %s: %v", name, err)
		}
		fmt.Println(res)
		fmt.Printf("[fig %s done in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("2", func() (fmt.Stringer, error) {
		r, err := env.Fig2(8)
		if err == nil && *pgmDir != "" {
			for k := 0; k < r.RendersShown; k++ {
				writePGM(env, fmt.Sprintf("fig2_eigenmap%02d.pgm", k+1), env.PCA.Basis.Psi.Col(k), nil)
			}
		}
		return r, err
	})
	run("3a", func() (fmt.Stringer, error) { return env.Fig3a() })
	run("3b", func() (fmt.Stringer, error) { return env.Fig3b() })
	run("3c", func() (fmt.Stringer, error) { return env.Fig3c() })
	run("4", func() (fmt.Stringer, error) {
		r, err := env.Fig4()
		if err == nil && *pgmDir != "" {
			for i := 0; i < 2; i++ {
				writePGM(env, fmt.Sprintf("fig4_map%d_original.pgm", i+1), r.Originals[i], nil)
				writePGM(env, fmt.Sprintf("fig4_map%d_eigenmaps.pgm", i+1), r.Eigen[i], nil)
				writePGM(env, fmt.Sprintf("fig4_map%d_klse.pgm", i+1), r.KLSE[i], nil)
			}
		}
		return r, err
	})
	run("5", func() (fmt.Stringer, error) { return env.Fig5() })
	run("6", func() (fmt.Stringer, error) { return env.Fig6() })
	run("headline", func() (fmt.Stringer, error) { return env.Headline() })
	// Extensions beyond the paper's figures (off by default; enable with
	// -figs ...,stability,tracking,crossfloorplan,robust,governor).
	run("stability", func() (fmt.Stringer, error) { return env.Stability() })
	run("tracking", func() (fmt.Stringer, error) { return env.Tracking() })
	run("crossfloorplan", func() (fmt.Stringer, error) { return env.CrossFloorplan() })
	run("governor", func() (fmt.Stringer, error) {
		// Closed-loop control quality on the generated 256-core die: the
		// monitor-in-the-loop governor's M×K sweep against the oracle and
		// ungoverned arms, plus the drift-faulted repeat. -scenario-spec
		// files override the four-scenario default catalog cross-section.
		return experiments.Governor(experiments.GovernorConfig{
			Seed:         env.Cfg.Seed,
			Specs:        env.Cfg.Specs,
			LoadCoupling: env.Cfg.LoadCoupling,
		})
	})
	run("robust", func() (fmt.Stringer, error) {
		// Cross-scenario robustness on the generated 256-core die; the
		// environment's specs (e.g. from -scenario-spec) override the
		// six-family default catalog cross-section, everything else is
		// filled by the harness defaults.
		return experiments.Robust(experiments.RobustConfig{
			Seed:         env.Cfg.Seed,
			Specs:        env.Cfg.Specs,
			LoadCoupling: env.Cfg.LoadCoupling,
		})
	})

	fmt.Printf("all requested figures done in %v\n", time.Since(start).Round(time.Millisecond))
	if *pgmDir != "" {
		fmt.Printf("PGM images in %s\n", *pgmDir)
	}
}

func writePGM(env *experiments.Env, name string, values []float64, sensors []int) {
	dir := flag.Lookup("pgm-dir").Value.String()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("warning: %v", err)
		return
	}
	g := floorplan.Grid{W: env.DS.Grid.W, H: env.DS.Grid.H}
	img := render.PGM(g, values, render.Options{Sensors: sensors})
	if err := os.WriteFile(filepath.Join(dir, name), img, 0o644); err != nil {
		log.Printf("warning: %v", err)
	}
}
