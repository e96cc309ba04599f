// Command e2ebench is the repository's end-to-end benchmark. It builds its
// inputs from a seed, starts emapsd as a separate process per pass, drives
// it over loopback from this one process (at most two keep-alive
// connections, GOMAXPROCS ≤ nproc), checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced pass
// (--trace 1) followed by one JSON result line.
//
//	bash e2ebench/run.sh --workload die-binary --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for inputs, daemon flags and the metric map):
//
//	die-binary  one paper-scale t1 die, binary estimate + govern
//	fleet-json  48 small paged monitors, JSON estimate + track
//	provision   create → first estimate, t1 and manycore-256c
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// options are the command's flags plus the process settings derived from
// the host.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	emapsd   string
	workdir  string

	runDir       string
	nproc        int
	harnessProcs int
	daemonProcs  int
}

func (o *options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// setupsPerRun is how many times an untraced run brings a daemon up from
// exec to serving; setup_s is their median.
const setupsPerRun = 5

func main() {
	os.Exit(run())
}

func run() int {
	o := &options{}
	flag.StringVar(&o.workload, "workload", "", "die-binary, fleet-json or provision")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the replayed held-out traces, start offsets, zipf draws and provision's training seeds derive from it")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1 = also run a traced pass and report per-layer metrics")
	flag.StringVar(&o.emapsd, "emapsd", "", "path to the emapsd binary")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for daemon logs, stores and spans")
	flag.Parse()
	if o.emapsd == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.seed < 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: need -emapsd, -seconds ≥ 1, -trace 0|1 and a non-negative -seed")
		return 2
	}
	o.nproc = runtime.NumCPU()
	o.harnessProcs = min(2, o.nproc)
	o.daemonProcs = o.nproc
	runtime.GOMAXPROCS(o.harnessProcs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()
	defer stopAll()

	o.runDir = filepath.Join(o.workdir, "runs", fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	untraced, traced, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %v (logs in %s)\n", o.workload, o.seed, err, o.runDir)
		return 1
	}
	out := os.Stdout
	printRun(out, o, "run", untraced)
	metrics := map[string]any{}
	final := untraced
	if traced != nil {
		printRun(out, o, "traced", traced)
		printOverhead(out, untraced, traced)
		printLayers(out, traced)
		m := traced.layersMetrics()
		for _, def := range perLayer {
			metrics[def.name] = metricValue{m[def.name], def.unit}
		}
		final = traced
	} else {
		m := untraced.e2e()
		for _, def := range endToEnd {
			metrics[def.name] = metricValue{m[def.name], def.unit}
		}
	}
	attempted, failed := untraced.meas.ops, untraced.meas.failed
	if traced != nil {
		attempted += traced.meas.ops
		failed += traced.meas.failed
	}
	correct := failed == 0 && final.ops() > 0
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !correct {
		fmt.Fprintf(os.Stderr, "e2ebench: %d of %d ops failed (logs in %s)\n", failed, attempted, o.runDir)
		return 1
	}
	os.RemoveAll(o.runDir)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload builds the workload's inputs (not timed) and runs its passes:
// one untraced pass with setupsPerRun setups, and with --trace 1 a second,
// traced pass whose difference from the first is the tracing overhead.
func runWorkload(o *options) (untraced, traced *passResult, err error) {
	setups := setupsPerRun
	if o.trace == 1 {
		setups = 1
	}
	switch o.workload {
	case "die-binary", "fleet-json":
		var w *servingWorkload
		if o.workload == "die-binary" {
			w, err = newDieBinary(o.seed)
		} else {
			w, err = newFleetJSON(o.seed)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("building inputs: %w", err)
		}
		flags := strings.Join(w.flags, " ")
		if w.durable {
			flags += " -store-dir <fresh per setup>"
		}
		fmt.Printf("[inputs] %s: %d dies, %d monitors, generated in %.3f s (excluded from every metric); emapsd %s\n",
			w.name, len(w.dies), len(w.monitors), w.genTime.Seconds(), flags)
		if untraced, err = runServing(o, w, "untraced", false, setups); err != nil || o.trace == 0 {
			return untraced, nil, err
		}
		traced, err = runServing(o, w, "traced", true, setups)
		return untraced, traced, err
	case "provision":
		p, err := newProvision(o.seed, o.seconds)
		if err != nil {
			return nil, nil, fmt.Errorf("building inputs: %w", err)
		}
		fmt.Printf("[inputs] provision: pool of %d ops, generated in %.3f s (excluded from every metric); emapsd %s -store-dir <fresh per setup>\n",
			len(p.ops), p.genTime.Seconds(), strings.Join(p.flags, " "))
		if untraced, err = runProvision(o, p, "untraced", false, setups); err != nil || o.trace == 0 {
			return untraced, nil, err
		}
		traced, err = runProvision(o, p, "traced", true, setups)
		return untraced, traced, err
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}

// workloadNames are the workloads runWorkload knows, in BENCHMARK.json's
// order.
var workloadNames = []string{"die-binary", "fleet-json", "provision"}
