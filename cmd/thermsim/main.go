// Command thermsim runs the design-time thermal simulation and writes the
// snapshot ensemble to a dataset file consumed by emaps and experiments.
//
// Usage:
//
//	thermsim -o maps.emds [-w 60] [-hh 56] [-t 2652] [-seed 2012]
//	         [-scenarios web,compute,mixed,idle] [-scenario-spec a.json,b.json]
//	         [-floorplan t1|athlon|manycore-<cores>c] [-leakage]
//	         [-list-scenarios]
//	thermsim -govern hysteresis [-govern-ceiling C] [-govern-steps N]
//	         [-govern-m M -govern-k K] [-govern-faults spec] ...
//
// With -govern, thermsim runs the monitor-in-the-loop thermal governor over
// each scenario instead of writing a dataset: the chosen policy caps
// per-core DVFS from the estimated map (-govern-m sensors; 0 = ground-truth
// oracle) and the run's closed-loop control metrics are printed.
//
// Scenario names resolve against the workload registry (see
// -list-scenarios); -scenario-spec loads declarative JSON workload specs
// and runs them as additional segments after the named scenarios.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("thermsim: ")

	var (
		out       = flag.String("o", "maps.emds", "output dataset path")
		w         = flag.Int("w", 60, "grid width (columns)")
		h         = flag.Int("hh", 56, "grid height (rows)")
		t         = flag.Int("t", 2652, "number of snapshots")
		seed      = flag.Int64("seed", 2012, "simulation seed")
		scenarios = flag.String("scenarios", "web,compute,mixed,idle", "comma-separated workload scenario names")
		specFiles = flag.String("scenario-spec", "", "comma-separated JSON workload-spec files, run after -scenarios")
		fpName    = flag.String("floorplan", "t1", "floorplan: t1, athlon or manycore-<cores>c")
		leakage   = flag.Bool("leakage", false, "enable temperature-dependent leakage feedback")
		steps     = flag.Int("steps-per-snapshot", 1, "simulation steps between recorded snapshots")
		coupling  = flag.Float64("coupling", power.DefaultLoadCoupling, "default core load coupling in [0,1] for scenarios that declare no load_coupling of their own")
		list      = flag.Bool("list-scenarios", false, "print the workload registry and exit")

		govern     = flag.String("govern", "", "closed-loop mode: run this control policy (threshold, hysteresis or pi) instead of writing a dataset")
		govCeiling = flag.Float64("govern-ceiling", 0, "thermal ceiling in C (0 = auto: 2 C below each scenario's ungoverned core peak)")
		govSteps   = flag.Int("govern-steps", 120, "closed-loop transient steps per scenario")
		govM       = flag.Int("govern-m", 0, "sensors for the estimated arm (0 = oracle: govern from ground truth)")
		govK       = flag.Int("govern-k", 4, "monitor subspace dimension when -govern-m > 0")
		govFaults  = flag.String("govern-faults", "", "drift fault spec injected into the estimated arm's readings")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(workload.Names(), "\n"))
		return
	}

	specs, err := workload.ParseList(*scenarios)
	if err != nil {
		log.Fatal(err)
	}
	fileSpecs, err := workload.DecodeFiles(*specFiles)
	if err != nil {
		log.Fatal(err)
	}
	specs = append(specs, fileSpecs...)

	fp, err := floorplan.Named(*fpName)
	if err != nil {
		log.Fatal(err)
	}
	pcfg := power.ConfigFor(fp, *coupling)

	if *govern != "" {
		err := runGovern(fp, floorplan.Grid{W: *w, H: *h}, specs, pcfg, *t, *seed,
			governConfig{
				Policy:   *govern,
				CeilingC: *govCeiling,
				Steps:    *govSteps,
				M:        *govM,
				K:        *govK,
				Faults:   *govFaults,
			})
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := dataset.GenConfig{
		Grid:             floorplan.Grid{W: *w, H: *h},
		Snapshots:        *t,
		Specs:            specs,
		Seed:             *seed,
		StepsPerSnapshot: *steps,
		Power:            pcfg,
	}
	if *leakage {
		cfg.Thermal.Leakage = thermal.DefaultLeakage()
	}

	ds, err := dataset.Generate(fp, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	st := ds.Stats()
	fmt.Fprintf(os.Stdout, "wrote %s: T=%d maps of %s on %dx%d grid (N=%d)\n", *out, st.T, fp.Name, *h, *w, st.N)
	fmt.Fprintf(os.Stdout, "temperature range %.2f..%.2f C, ensemble mean %.2f C\n", st.MinC, st.MaxC, st.MeanC)
}
