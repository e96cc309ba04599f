package workload

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// The built-in scenario catalog. The first four entries are the
// repository's historical presets, expressed as specs: their rates,
// phase alternation and migration periods are the exact values the
// retired power.Scenario enum arms hardcoded, so the power engine
// reproduces those arms' traces bit-for-bit (the ensembles of the default
// mix are digest-pinned by TestCreatePathDigestsPinned in internal/core).
var builtins = []*Spec{
	{
		Name:   "web",
		Family: "web",
		Phases: []Phase{{
			Name:  "serve",
			Rates: Rates{IdleToBusy: 0.15, BusyToIdle: 0.10, BusyToFPU: 0.02, FPUToBusy: 0.20},
		}},
		Migration: Migration{Period: 20},
	},
	{
		Name:   "compute",
		Family: "compute",
		Phases: []Phase{{
			Name:  "crunch",
			Rates: Rates{IdleToBusy: 0.30, BusyToIdle: 0.02, BusyToFPU: 0.10, FPUToBusy: 0.05},
		}},
		Migration: Migration{Period: 120},
	},
	{
		Name:   "mixed",
		Family: "mixed",
		Phases: []Phase{
			{
				Name:  "web",
				Steps: 300,
				Rates: Rates{IdleToBusy: 0.15, BusyToIdle: 0.10, BusyToFPU: 0.02, FPUToBusy: 0.20},
			},
			{
				Name:  "compute",
				Steps: 300,
				Rates: Rates{IdleToBusy: 0.30, BusyToIdle: 0.02, BusyToFPU: 0.10, FPUToBusy: 0.05},
			},
		},
		Migration: Migration{Period: 40},
	},
	{
		Name:   "idle",
		Family: "idle",
		Phases: []Phase{{
			Name:  "background",
			Rates: Rates{IdleToBusy: 0.04, BusyToIdle: 0.25, BusyToFPU: 0.01, FPUToBusy: 0.30},
		}},
		Migration: Migration{Period: 60},
	},

	// Extended catalog: scenario families the enum could never express.
	{
		// Web serving under flash-crowd arrivals: a hidden calm/burst MMPP
		// chain quadruples the task-arrival rate in bursts.
		Name:   "bursty",
		Family: "bursty",
		Phases: []Phase{{
			Name:  "serve",
			Rates: Rates{IdleToBusy: 0.10, BusyToIdle: 0.12, BusyToFPU: 0.02, FPUToBusy: 0.20},
		}},
		Arrival:   &Arrival{BurstFactor: 4, PEnter: 0.05, PExit: 0.15},
		Migration: Migration{Period: 20},
	},
	{
		// Duty-cycled streaming: compute-heavy cores whose utilization is
		// modulated by a slow sine envelope (think frame-batch pipelines),
		// with the interconnect riding a quarter-period behind.
		Name:   "wave",
		Family: "wave",
		Phases: []Phase{{
			Name:  "stream",
			Rates: Rates{IdleToBusy: 0.25, BusyToIdle: 0.04, BusyToFPU: 0.06, FPUToBusy: 0.10},
		}},
		Envelopes: []Envelope{
			{Kind: "core", Period: 400, Min: 0.30, Max: 1.0, Shape: "sine"},
			{Kind: "crossbar", Period: 400, Min: 0.40, Max: 1.0, Shape: "sine", Phase: 0.25},
		},
		Migration: Migration{Period: 80},
	},
	{
		// Sustained compute under a power-capping DVFS governor: cores
		// throttle between half and nominal frequency on utilization
		// thresholds, cubing into dynamic power.
		Name:   "dvfs",
		Family: "dvfs",
		Phases: []Phase{{
			Name:  "crunch",
			Rates: Rates{IdleToBusy: 0.30, BusyToIdle: 0.02, BusyToFPU: 0.10, FPUToBusy: 0.05},
		}},
		DVFS:      &DVFS{Levels: []float64{0.5, 0.75, 1.0}, UpAt: 0.80, DownAt: 0.40, Hold: 25},
		Migration: Migration{Period: 120},
	},
	{
		// Scheduler thrash: web-like activity with aggressive rebalancing —
		// a short deterministic period plus a per-step migration Markov
		// chain — smearing hotspots across the die.
		Name:   "thrash",
		Family: "thrash",
		Phases: []Phase{{
			Name:  "serve",
			Rates: Rates{IdleToBusy: 0.15, BusyToIdle: 0.10, BusyToFPU: 0.02, FPUToBusy: 0.20},
		}},
		Migration: Migration{Period: 10, Rate: 0.20},
	},
}

var registry = func() map[string]*Spec {
	m := make(map[string]*Spec, len(builtins))
	for _, s := range builtins {
		if err := s.Validate(); err != nil {
			panic(err) // a broken builtin is a programming error
		}
		m[s.Name] = s
	}
	return m
}()

// Parse resolves a scenario name against the registry, returning a deep
// copy of the spec. It is the single scenario-name parser: the thermsim
// CLI, the public facade's Workload type and the daemon's create path all
// route through it.
func Parse(name string) (*Spec, error) {
	s, ok := registry[strings.TrimSpace(name)]
	if !ok {
		return nil, fmt.Errorf("workload: unknown scenario %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	return s.Clone(), nil
}

// ParseList resolves a comma-separated scenario-name list, skipping empty
// elements ("web,,compute" parses as two scenarios).
func ParseList(csv string) ([]*Spec, error) {
	var out []*Spec
	for _, name := range strings.Split(csv, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		s, err := Parse(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// DecodeFiles loads declarative specs from a comma-separated list of JSON
// file paths (empty elements skipped) — the shared implementation behind
// the CLIs' -scenario-spec flags.
func DecodeFiles(csv string) ([]*Spec, error) {
	var out []*Spec
	for _, path := range strings.Split(csv, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		spec, err := Decode(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, spec)
	}
	return out, nil
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Preset returns the registry spec for one of the four historical presets
// by name. It panics on unknown names — it exists for dataset.Generate's
// default mix and for tests, where the name set is closed.
func Preset(name string) *Spec {
	s, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("workload: no preset %q", name))
	}
	return s.Clone()
}
