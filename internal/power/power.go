// Package power synthesizes per-block power traces for a floorplan.
//
// The paper drives its thermal simulations with measured UltraSPARC T1 power
// traces (Leon et al. [7]); those are proprietary, so this package generates
// the closest synthetic equivalent: block-granularity powers evolving under a
// Markov task-activity model with OS-style task migration, cache and crossbar
// power coupled to core activity, and occasional FPU bursts. What the
// EigenMaps method actually depends on is the *ensemble diversity* of
// spatially structured power patterns, which this engine provides.
//
// The engine is driven by declarative workload.Spec scenarios: phase
// schedules of Markov rate regimes, bursty (MMPP) arrival modulation,
// task-migration chains, DVFS ladders and periodic duty envelopes. The four
// historical presets (web, compute, mixed, idle) are registry specs; the
// engine consumes the RNG in exactly the order of the enum arms it
// replaced, so their traces are bit-identical to the pre-spec
// implementation.
package power

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/floorplan"
	"repro/internal/workload"
)

// Config parameterizes a Generator's hardware. The zero value plus a Seed
// is a usable configuration.
type Config struct {
	Seed int64

	// CoreIdleW / CoreBusyW bound each core's power draw [watts].
	// Defaults: 1.0 / 6.5 (T1-class core budgets).
	CoreIdleW float64
	CoreBusyW float64
	// CacheBaseW is each L2 bank's standby power; CacheActiveW is added in
	// proportion to the activity of the cores it serves. Defaults: 0.6 / 1.8.
	CacheBaseW   float64
	CacheActiveW float64
	// CrossbarBaseW/CrossbarActiveW: interconnect power, scaling with mean
	// core utilization. Defaults: 1.0 / 4.0.
	CrossbarBaseW   float64
	CrossbarActiveW float64
	// FPUBaseW/FPUActiveW: shared FPU power, scaling with the fraction of
	// cores running FPU-heavy tasks. Defaults: 0.2 / 5.0.
	FPUBaseW   float64
	FPUActiveW float64
	// OtherW is the power density assigned to blocks of KindOther. Default 0.5.
	OtherW float64

	// LoadCoupling ∈ [0,1] blends each core's utilization target with a
	// shared, slowly varying system-load level: 1 makes cores track the
	// global load exactly. It is the default for specs that declare no
	// load_coupling of their own — a spec's non-zero value wins, since
	// coupling is part of the scenario definition. Throughput machines
	// like the T1 run strongly correlated cores (every core serves the
	// same request mix), which concentrates the thermal ensemble's energy
	// in fewer principal components.
	LoadCoupling float64
}

func (c *Config) defaults() {
	if c.CoreIdleW == 0 {
		c.CoreIdleW = 1.0
	}
	if c.CoreBusyW == 0 {
		c.CoreBusyW = 6.5
	}
	if c.CacheBaseW == 0 {
		c.CacheBaseW = 0.6
	}
	if c.CacheActiveW == 0 {
		c.CacheActiveW = 1.8
	}
	if c.CrossbarBaseW == 0 {
		c.CrossbarBaseW = 1.0
	}
	if c.CrossbarActiveW == 0 {
		c.CrossbarActiveW = 4.0
	}
	if c.FPUBaseW == 0 {
		c.FPUBaseW = 0.2
	}
	if c.FPUActiveW == 0 {
		c.FPUActiveW = 5.0
	}
	if c.OtherW == 0 {
		c.OtherW = 0.5
	}
}

// WithDefaults returns a copy of c with every unset power budget resolved to
// its default. Callers that need the *effective* budgets — the thermal
// governor inverts CoreIdleW/CoreBusyW to recover per-core activity from a
// demand power vector — resolve through here so they see exactly the numbers
// the Generator will use.
func (c Config) WithDefaults() Config {
	c.defaults()
	return c
}

// ManycoreConfig returns a Config whose per-block power budgets are scaled
// for a generated many-core die (floorplan.Manycore): per-core and per-bank
// budgets shrink with the core/bank counts so the total die power stays in
// a T1-class envelope (tens of watts) regardless of scale — matching how
// real many-core parts trade per-core power for core count on a fixed
// thermal budget. With cores = caches = 8 it reproduces the T1 defaults.
func ManycoreConfig(cores, caches int) Config {
	var c Config
	c.defaults()
	if cores > 0 {
		f := 8.0 / float64(cores)
		c.CoreIdleW *= f
		c.CoreBusyW *= f
	}
	if caches > 0 {
		f := 8.0 / float64(caches)
		c.CacheBaseW *= f
		c.CacheActiveW *= f
	}
	return c
}

// DefaultLoadCoupling is the load coupling of the T1's throughput
// workloads, whose cores serve the same request mix (see
// Config.LoadCoupling): the regime the daemon trains every model in, and
// the default of the experiment suite and the simulator CLI.
const DefaultLoadCoupling = 0.75

// ConfigFor returns the Config for simulating fp at the given default load
// coupling: T1-class dies (≤ 8 cores) get the standard budgets, larger
// generated dies get ManycoreConfig scaling. It is the single place the
// "scale budgets past 8 cores" policy lives — the daemon, the CLIs and the
// robustness harness all build their configs here.
func ConfigFor(fp *floorplan.Floorplan, coupling float64) Config {
	var c Config
	if cores := len(fp.KindBlocks(floorplan.KindCore)); cores > 8 {
		c = ManycoreConfig(cores, len(fp.KindBlocks(floorplan.KindCache)))
	}
	c.LoadCoupling = coupling
	return c
}

// coreState is the per-core Markov state.
type coreState int

const (
	coreIdle coreState = iota
	coreBusy
	coreFPU // busy with FPU-heavy work
)

// kind indices for the per-step envelope multipliers.
const (
	envCore = iota
	envCache
	envCrossbar
	envFPU
	envOther
	envKinds
)

var envKindIndex = map[string]int{
	"core": envCore, "cache": envCache, "crossbar": envCrossbar,
	"fpu": envFPU, "other": envOther,
}

// Generator produces a per-block power vector at each step, driven by a
// declarative workload spec.
type Generator struct {
	cfg  Config
	spec *workload.Spec
	plan *floorplan.Floorplan
	rng  *rand.Rand

	cores  []int // block indices of cores, layout order
	caches []int
	xbars  []int
	fpus   []int
	others []int

	state      []coreState // per core
	util       []float64   // per core, smoothed utilization in [0,1]
	globalLoad float64     // shared system-load level in [0,1]
	step       int

	coupling  float64 // effective load coupling (Config overrides spec)
	migPeriod int     // effective migration period (Config overrides spec)

	burst bool // MMPP modulating-chain state (specs with Arrival)

	dvfsLevel []int // per core: index into spec.DVFS.Levels
	dvfsHold  []int // per core: steps until the governor may act again

	hasEnv bool
	envMul [envKinds]float64 // per-kind duty multiplier for the current step
	uEff   []float64         // envelope-modulated utilization (aliases util without envelopes)
}

// NewSpecGenerator builds a Generator driven by a declarative workload
// spec. cfg supplies the hardware power budgets; spec supplies the
// dynamics. The trace is bit-reproducible given
// (spec, cfg.Seed).
func NewSpecGenerator(fp *floorplan.Floorplan, spec *workload.Spec, cfg Config) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	g := &Generator{
		cfg:  cfg,
		spec: spec.Clone(),
		plan: fp,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	for i, b := range fp.Blocks {
		switch b.Kind {
		case floorplan.KindCore:
			g.cores = append(g.cores, i)
		case floorplan.KindCache:
			g.caches = append(g.caches, i)
		case floorplan.KindCrossbar:
			g.xbars = append(g.xbars, i)
		case floorplan.KindFPU:
			g.fpus = append(g.fpus, i)
		default:
			g.others = append(g.others, i)
		}
	}
	// The spec's load_coupling is part of the scenario definition and wins
	// when set; Config.LoadCoupling is the caller-side default for specs
	// that don't declare one. (Presets declare none, so the historical
	// Config knob keeps its exact effect on them.)
	g.coupling = g.spec.LoadCoupling
	if g.coupling == 0 {
		g.coupling = cfg.LoadCoupling
	}
	g.migPeriod = g.spec.Migration.Period
	g.state = make([]coreState, len(g.cores))
	g.util = make([]float64, len(g.cores))
	g.globalLoad = 0.5
	if d := g.spec.DVFS; d != nil {
		g.dvfsLevel = make([]int, len(g.cores))
		g.dvfsHold = make([]int, len(g.cores))
		for c := range g.dvfsLevel {
			g.dvfsLevel[c] = len(d.Levels) - 1 // start at nominal frequency
		}
	}
	g.hasEnv = len(g.spec.Envelopes) > 0
	if g.hasEnv {
		g.uEff = make([]float64, len(g.cores))
	} else {
		g.uEff = g.util
	}
	// Start a representative subset of cores busy so traces don't all begin
	// from a cold idle map.
	for c := range g.state {
		if g.rng.Float64() < 0.5 {
			g.state[c] = coreBusy
			g.util[c] = 0.5 + 0.5*g.rng.Float64()
		}
	}
	return g, nil
}

// Step advances the workload one time step and returns the per-block power
// vector in watts (indexed like fp.Blocks).
func (g *Generator) Step() []float64 {
	g.advanceStates()
	if g.migPeriod > 0 && g.step > 0 && g.step%g.migPeriod == 0 {
		g.migrate()
	}
	// Task-migration Markov chain: an extra per-step migration draw on top
	// of the periodic policy (specs with Migration.Rate > 0 only, so the
	// presets consume no extra randomness here).
	if rate := g.spec.Migration.Rate; rate > 0 && g.rng.Float64() < rate {
		g.migrate()
	}
	g.advanceDVFS()
	if g.hasEnv {
		g.evalEnvelopes(g.step)
	}
	g.step++
	return g.blockPowers()
}

// advanceStates runs the per-core Markov transitions and smooths utilization.
func (g *Generator) advanceStates() {
	r := g.spec.PhaseAt(g.step).Rates
	if a := g.spec.Arrival; a != nil {
		// MMPP modulating chain: one draw per step, then scale arrivals.
		p := g.rng.Float64()
		if g.burst {
			if p < a.PExit {
				g.burst = false
			}
		} else if p < a.PEnter {
			g.burst = true
		}
		if g.burst {
			r.IdleToBusy *= a.BurstFactor
			if r.IdleToBusy > 1 {
				r.IdleToBusy = 1
			}
		}
	}
	// Shared system load: bounded random walk, slower than per-core churn.
	g.globalLoad += 0.08 * (g.rng.Float64() - 0.5)
	if g.globalLoad < 0 {
		g.globalLoad = 0
	}
	if g.globalLoad > 1 {
		g.globalLoad = 1
	}
	for c := range g.state {
		p := g.rng.Float64()
		switch g.state[c] {
		case coreIdle:
			if p < r.IdleToBusy {
				g.state[c] = coreBusy
			}
		case coreBusy:
			switch {
			case p < r.BusyToIdle:
				g.state[c] = coreIdle
			case p < r.BusyToIdle+r.BusyToFPU:
				g.state[c] = coreFPU
			}
		case coreFPU:
			if p < r.FPUToBusy {
				g.state[c] = coreBusy
			}
		}
		// Smooth utilization toward the state target (AR(1) with jitter),
		// blended with the shared load by the effective coupling.
		target := 0.0
		switch g.state[c] {
		case coreBusy:
			target = 0.75 + 0.25*g.rng.Float64()
		case coreFPU:
			target = 0.85 + 0.15*g.rng.Float64()
		}
		if cpl := g.coupling; cpl > 0 {
			target = (1-cpl)*target + cpl*g.globalLoad
		}
		const alpha = 0.35
		g.util[c] += alpha * (target - g.util[c])
		if g.util[c] < 0 {
			g.util[c] = 0
		}
		if g.util[c] > 1 {
			g.util[c] = 1
		}
	}
}

// advanceDVFS runs the per-core frequency governor: step up when smoothed
// utilization exceeds UpAt, down below DownAt, at most once per Hold steps.
// Deterministic — no RNG draws.
func (g *Generator) advanceDVFS() {
	d := g.spec.DVFS
	if d == nil {
		return
	}
	for c := range g.dvfsLevel {
		if g.dvfsHold[c] > 0 {
			g.dvfsHold[c]--
			continue
		}
		switch {
		case g.util[c] > d.UpAt && g.dvfsLevel[c] < len(d.Levels)-1:
			g.dvfsLevel[c]++
			g.dvfsHold[c] = d.Hold
		case g.util[c] < d.DownAt && g.dvfsLevel[c] > 0:
			g.dvfsLevel[c]--
			g.dvfsHold[c] = d.Hold
		}
	}
}

// evalEnvelopes computes the per-kind duty multipliers for step idx.
// Envelopes targeting the same kind (or the catch-all "") compose
// multiplicatively.
func (g *Generator) evalEnvelopes(idx int) {
	for k := range g.envMul {
		g.envMul[k] = 1
	}
	for i := range g.spec.Envelopes {
		e := &g.spec.Envelopes[i]
		v := envelopeValue(e, idx)
		if e.Kind == "" {
			for k := range g.envMul {
				g.envMul[k] *= v
			}
			continue
		}
		g.envMul[envKindIndex[e.Kind]] *= v
	}
}

// clampActivity keeps an envelope-modulated activity a fraction: activity
// feeds Base + Active·act power models whose budgets assume act ∈ [0,1].
func clampActivity(a float64) float64 {
	if a > 1 {
		return 1
	}
	return a
}

// envelopeValue evaluates one envelope's waveform at step idx.
func envelopeValue(e *workload.Envelope, idx int) float64 {
	pos := math.Mod(float64(idx)/float64(e.Period)+e.Phase, 1)
	var w float64
	switch e.Shape {
	case "", "sine":
		w = 0.5 * (1 + math.Sin(2*math.Pi*pos))
	case "square":
		if pos < 0.5 {
			w = 1
		}
	case "saw":
		w = pos
	}
	return e.Min + (e.Max-e.Min)*w
}

// migrate emulates OS rebalancing: move the hottest task to the idlest core.
func (g *Generator) migrate() {
	busiest, idlest := -1, -1
	for c := range g.util {
		if g.state[c] != coreIdle && (busiest < 0 || g.util[c] > g.util[busiest]) {
			busiest = c
		}
		if g.state[c] == coreIdle && (idlest < 0 || g.util[c] < g.util[idlest]) {
			idlest = c
		}
	}
	if busiest < 0 || idlest < 0 {
		return
	}
	g.state[busiest], g.state[idlest] = g.state[idlest], g.state[busiest]
	g.util[busiest], g.util[idlest] = g.util[idlest], g.util[busiest]
}

// blockPowers maps the current workload state to per-block watts.
func (g *Generator) blockPowers() []float64 {
	c := g.cfg
	p := make([]float64, len(g.plan.Blocks))
	if g.hasEnv {
		// Duty envelopes modulate the activity feeding the power model;
		// core utilization stays clamped to [0,1] so budget bounds hold.
		m := g.envMul[envCore]
		for ci, u := range g.util {
			u *= m
			if u > 1 {
				u = 1
			}
			g.uEff[ci] = u
		}
	}
	var meanUtil, fpuShare float64
	for ci, b := range g.cores {
		u := g.uEff[ci]
		du := u
		if d := g.spec.DVFS; d != nil {
			// Dynamic power ∝ f·V² with V ∝ f: cube the relative frequency.
			f := d.Levels[g.dvfsLevel[ci]]
			du = u * f * f * f
		}
		p[b] = c.CoreIdleW + (c.CoreBusyW-c.CoreIdleW)*du
		meanUtil += u
		if g.state[ci] == coreFPU {
			fpuShare++
		}
	}
	if len(g.cores) > 0 {
		meanUtil /= float64(len(g.cores))
		fpuShare /= float64(len(g.cores))
	}
	// Each cache bank couples to the utilization of the cores sharing its
	// column position (nearest cores by layout order).
	for k, b := range g.caches {
		act := g.cacheActivity(k)
		if g.hasEnv {
			act = clampActivity(act * g.envMul[envCache])
		}
		p[b] = c.CacheBaseW + c.CacheActiveW*act
	}
	for _, b := range g.xbars {
		act := meanUtil
		if g.hasEnv {
			act = clampActivity(act * g.envMul[envCrossbar])
		}
		p[b] = c.CrossbarBaseW + c.CrossbarActiveW*act
	}
	for _, b := range g.fpus {
		act := fpuShare
		if g.hasEnv {
			act = clampActivity(act * g.envMul[envFPU])
		}
		p[b] = c.FPUBaseW + c.FPUActiveW*act
	}
	for _, b := range g.others {
		w := c.OtherW
		if g.hasEnv {
			w *= g.envMul[envOther]
		}
		p[b] = w
	}
	return p
}

// cacheActivity estimates the utilization seen by cache bank k by averaging
// the cores at the matching position in layout order. With the T1 layout
// (4+4 cores, 4+4 banks) bank k pairs with core k.
func (g *Generator) cacheActivity(k int) float64 {
	if len(g.cores) == 0 {
		return 0
	}
	if len(g.caches) == len(g.cores) {
		return g.uEff[k]
	}
	// General fallback: proportionally map banks onto cores.
	ci := k * len(g.cores) / len(g.caches)
	return g.uEff[ci]
}

// TotalPower sums a per-block power vector.
func TotalPower(blockPowers []float64) float64 {
	var s float64
	for _, v := range blockPowers {
		s += v
	}
	return s
}

// SpreadToCells converts per-block watts into per-cell watts on the raster:
// each block's power is divided uniformly over the cells it covers
// (the paper's "large blocks having the same average power consumption").
// Cells not covered by any block receive zero.
func SpreadToCells(r *floorplan.Raster, blockPowers []float64) []float64 {
	out := make([]float64, r.Grid.N())
	SpreadToCellsInto(out, r, blockPowers)
	return out
}

// SpreadToCellsInto is the allocation-free form of SpreadToCells: the
// per-cell watts are written into dst (length N), which is zeroed first.
func SpreadToCellsInto(dst []float64, r *floorplan.Raster, blockPowers []float64) {
	if len(blockPowers) != len(r.Plan.Blocks) {
		panic(fmt.Sprintf("power: %d block powers for %d blocks", len(blockPowers), len(r.Plan.Blocks)))
	}
	if len(dst) != r.Grid.N() {
		panic(fmt.Sprintf("power: dst length %d for %d cells", len(dst), r.Grid.N()))
	}
	for i := range dst {
		dst[i] = 0
	}
	for b, watts := range blockPowers {
		cells := r.CellsOf(b)
		if len(cells) == 0 {
			continue
		}
		per := watts / float64(len(cells))
		for _, i := range cells {
			dst[i] = per
		}
	}
}
