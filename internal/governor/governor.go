// Package governor closes the monitoring loop: it turns the estimated
// thermal map a Monitor reconstructs from M sensors into per-core DVFS cap
// decisions, and (in Loop) feeds the capped power vector back into the
// factor-once transient solver. The paper stops at passive reconstruction;
// this package is the reason a fleet wants that map — dynamic thermal
// management actuated from estimates instead of per-cell instrumentation.
//
// The actuation model reuses the workload DVFS-ladder machinery: a cap is an
// index into an ascending ladder of relative frequencies f ∈ (0,1], and a
// capped core's dynamic power scales as f³ (dynamic power ∝ f·V² with
// V ∝ f) while its delivered throughput scales as f. A Policy maps per-core
// temperatures to ladder levels; a Controller binds a policy to a floorplan
// so callers (the simulation loop, the daemon's govern route) hand it a full
// map and get back cap decisions.
//
// Three policies cover the classic DTM trade-offs:
//
//   - Threshold: memoryless trip — at or above TripC drop to the ladder
//     floor, below it run at nominal. Fast, but chatters when a core's
//     temperature rides the trip point.
//   - Hysteresis: a Schmitt trigger — throttle at SetC, release only below
//     ClearC. Inside the (ClearC, SetC) band the previous decision is held,
//     so the cap schedule cannot chatter however the temperature dithers.
//   - PICap: a per-core PI controller on the temperature error with a
//     clamped (anti-windup) integral, quantized down onto the ladder.
//     Smoothest control, tunable to hold a target just under the ceiling.
//
// All policies are deterministic: the same temperature sequence yields the
// same cap schedule, which is what makes closed-loop runs bit-reproducible
// (pinned by TestLoopDeterministic via Result.CapHash).
package governor

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/mat"
)

// DefaultLadder is the stock DVFS ladder: four relative-frequency steps with
// nominal last, mirroring the workload registry's ladder idiom.
var DefaultLadder = []float64{0.5, 0.7, 0.85, 1.0}

// maxLadder bounds ladder length so levels always fit a byte (the cap-hash
// and the wire encoding both rely on that).
const maxLadder = 256

// ValidateLadder checks a DVFS ladder: non-empty, strictly ascending,
// every relative frequency in (0, 1].
func ValidateLadder(ladder []float64) error {
	if len(ladder) == 0 {
		return fmt.Errorf("governor: empty DVFS ladder")
	}
	if len(ladder) > maxLadder {
		return fmt.Errorf("governor: %d ladder levels exceed the cap of %d", len(ladder), maxLadder)
	}
	for i, f := range ladder {
		if !(f > 0 && f <= 1) || math.IsNaN(f) {
			return fmt.Errorf("governor: ladder level %d is %v, want (0,1]", i, f)
		}
		if i > 0 && f <= ladder[i-1] {
			return fmt.Errorf("governor: ladder not strictly ascending at level %d (%v after %v)", i, f, ladder[i-1])
		}
	}
	return nil
}

// Policy maps per-core temperatures to per-core ladder levels. Reset is
// called once before use with the core count and the validated ladder; Act
// is then called once per control step and mutates levels in place (levels[c]
// indexes the ladder; the previous step's decision is the starting value).
// Implementations must be deterministic functions of the Reset parameters
// and the Act call sequence.
type Policy interface {
	// Name returns the policy's registry name ("threshold", "hysteresis",
	// "pi").
	Name() string
	// Reset prepares per-core state. It reports an error when the policy's
	// parameters are degenerate (e.g. an inverted hysteresis band).
	Reset(cores int, ladder []float64) error
	// Act reads coreTempC (one temperature per core, °C) and writes the next
	// ladder level per core into levels.
	Act(coreTempC []float64, levels []int)
}

// Params collects the tuning knobs of every built-in policy; NewPolicy
// derives unset setpoints from CeilingC so a bare ceiling is a complete
// configuration. All temperatures are °C.
type Params struct {
	// CeilingC is the thermal ceiling the governor defends. Required.
	CeilingC float64
	// TripC is the threshold policy's trip point. Default CeilingC − 1.
	TripC float64
	// SetC / ClearC bound the hysteresis band. Defaults CeilingC − 1 and
	// SetC − 3.
	SetC   float64
	ClearC float64
	// TargetC is the PI policy's setpoint. Default CeilingC − 2.
	TargetC float64
	// Kp / Ki are the PI gains in relative frequency per °C (and per
	// °C·step). Defaults 0.10 and 0.02.
	Kp float64
	Ki float64
}

// NewPolicy builds a built-in policy by name, deriving unset Params
// setpoints from the ceiling.
func NewPolicy(name string, p Params) (Policy, error) {
	if !(p.CeilingC > 0) {
		return nil, fmt.Errorf("governor: ceiling %v °C, want > 0", p.CeilingC)
	}
	switch name {
	case "threshold":
		trip := p.TripC
		if trip == 0 {
			trip = p.CeilingC - 1
		}
		return &Threshold{TripC: trip}, nil
	case "hysteresis":
		set := p.SetC
		if set == 0 {
			set = p.CeilingC - 1
		}
		clear := p.ClearC
		if clear == 0 {
			clear = set - 3
		}
		return &Hysteresis{SetC: set, ClearC: clear}, nil
	case "pi":
		target := p.TargetC
		if target == 0 {
			target = p.CeilingC - 2
		}
		kp, ki := p.Kp, p.Ki
		if kp == 0 {
			kp = 0.10
		}
		if ki == 0 {
			ki = 0.02
		}
		return &PICap{TargetC: target, Kp: kp, Ki: ki}, nil
	}
	return nil, fmt.Errorf("governor: unknown policy %q (want threshold, hysteresis or pi)", name)
}

// Threshold is the memoryless trip policy: a core at or above TripC runs at
// the ladder floor, below it at nominal. Deliberately chatter-prone — it is
// the baseline the hysteresis band improves on.
type Threshold struct {
	TripC float64

	top int
}

// Name implements Policy.
func (t *Threshold) Name() string { return "threshold" }

// Reset implements Policy.
func (t *Threshold) Reset(cores int, ladder []float64) error {
	if math.IsNaN(t.TripC) {
		return fmt.Errorf("governor: threshold trip point is NaN")
	}
	t.top = len(ladder) - 1
	return nil
}

// Act implements Policy.
func (t *Threshold) Act(coreTempC []float64, levels []int) {
	for c, tc := range coreTempC {
		if tc >= t.TripC {
			levels[c] = 0
		} else {
			levels[c] = t.top
		}
	}
}

// Hysteresis is a per-core Schmitt trigger: throttle to the ladder floor at
// SetC, release to nominal only once the core cools to ClearC. While a
// core's temperature stays strictly inside the (ClearC, SetC) band its level
// never changes — the no-chatter property TestHysteresisNoChatter pins.
type Hysteresis struct {
	SetC   float64
	ClearC float64

	top int
	hot []bool
}

// Name implements Policy.
func (h *Hysteresis) Name() string { return "hysteresis" }

// Reset implements Policy.
func (h *Hysteresis) Reset(cores int, ladder []float64) error {
	if !(h.SetC > h.ClearC) {
		return fmt.Errorf("governor: hysteresis band inverted (set %v °C ≤ clear %v °C)", h.SetC, h.ClearC)
	}
	h.top = len(ladder) - 1
	h.hot = make([]bool, cores)
	return nil
}

// Act implements Policy. The latch is set at or above SetC, kept while the
// core stays above ClearC, and cleared otherwise; a NaN temperature
// compares false both ways and holds it. The latch and the level are
// computed on 0/1 integers, so neither comparison is a branch: their
// outcome flips unpredictably when a core rides the band.
func (h *Hysteresis) Act(coreTempC []float64, levels []int) {
	set, clear, top := h.SetC, h.ClearC, h.top
	hot := h.hot[:len(coreTempC)]
	levels = levels[:len(coreTempC)]
	for c, tc := range coreTempC {
		latch := b2i(tc >= set) | b2i(hot[c])&^b2i(tc <= clear)
		hot[c] = latch != 0
		levels[c] = top &^ -latch
	}
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// PICap is a per-core PI controller on the temperature error e = T − TargetC:
// the continuous frequency cap is u = 1 − Kp·e − Ki·Σe, clamped to
// [ladder floor, 1] and quantized down onto the ladder (the delivered
// frequency never exceeds the computed cap). The integral is clamped to
// [0, (1 − floor)/Ki] — classic anti-windup, so a long saturated excursion
// stores only as much integral as the actuator can ever discharge and the
// cap recovers in bounded steps once the core cools
// (TestPIAntiWindup).
type PICap struct {
	TargetC float64
	Kp      float64
	Ki      float64

	ladder []float64
	integ  []float64
}

// Name implements Policy.
func (p *PICap) Name() string { return "pi" }

// Reset implements Policy.
func (p *PICap) Reset(cores int, ladder []float64) error {
	if !(p.Kp > 0) {
		return fmt.Errorf("governor: pi gain kp %v, want > 0", p.Kp)
	}
	if p.Ki < 0 || math.IsNaN(p.Ki) {
		return fmt.Errorf("governor: pi gain ki %v, want ≥ 0", p.Ki)
	}
	if math.IsNaN(p.TargetC) {
		return fmt.Errorf("governor: pi target is NaN")
	}
	p.ladder = ladder
	p.integ = make([]float64, cores)
	return nil
}

// Act implements Policy.
func (p *PICap) Act(coreTempC []float64, levels []int) {
	fmin := p.ladder[0]
	for c, tc := range coreTempC {
		e := tc - p.TargetC
		if p.Ki > 0 {
			p.integ[c] += e
			if p.integ[c] < 0 {
				p.integ[c] = 0
			}
			if lim := (1 - fmin) / p.Ki; p.integ[c] > lim {
				p.integ[c] = lim
			}
		}
		u := 1 - p.Kp*e - p.Ki*p.integ[c]
		if u < fmin {
			u = fmin
		}
		if u > 1 {
			u = 1
		}
		levels[c] = quantize(p.ladder, u)
	}
}

// quantize returns the highest ladder level whose frequency does not exceed
// u (floor level when even the lowest does). The 1e-9 slack absorbs the
// float noise of computing u from clamped arithmetic.
func quantize(ladder []float64, u float64) int {
	lvl := 0
	for i, f := range ladder {
		if f <= u+1e-9 {
			lvl = i
		}
	}
	return lvl
}

// CoreCells maps each core block of fp onto its raster cells, in
// fp.KindBlocks(KindCore) order — the per-core view a Controller reads
// temperatures through. Cores that rasterize to no cells (grid far coarser
// than the floorplan) get empty slices and are never throttled.
func CoreCells(fp *floorplan.Floorplan, r *floorplan.Raster) [][]int {
	blocks := fp.KindBlocks(floorplan.KindCore)
	out := make([][]int, len(blocks))
	for i, b := range blocks {
		out[i] = r.CellsOf(b)
	}
	return out
}

// Controller binds a policy to a floorplan's core map: Step takes one full
// thermal map (estimated or ground truth) and returns the next per-core
// ladder levels. It is the shared control kernel of the simulation Loop and
// the daemon's /govern route.
type Controller struct {
	policy Policy
	ladder []float64
	// cells[ci] is core ci's cell indices, a private copy on one backing
	// array; hottest lays them out for the per-step gathered scan.
	cells     [][]int
	hottest   *mat.MaxSets
	levels    []int
	temps     []float64
	throttled int // cores below the top level after the last Step
}

// NewController validates the ladder, resets the policy for len(coreCells)
// cores and starts every core at nominal frequency.
func NewController(policy Policy, ladder []float64, coreCells [][]int) (*Controller, error) {
	if policy == nil {
		return nil, fmt.Errorf("governor: nil policy")
	}
	if ladder == nil {
		ladder = DefaultLadder
	}
	if err := ValidateLadder(ladder); err != nil {
		return nil, err
	}
	if len(coreCells) == 0 {
		return nil, fmt.Errorf("governor: floorplan has no cores to govern")
	}
	ladder = append([]float64(nil), ladder...)
	if err := policy.Reset(len(coreCells), ladder); err != nil {
		return nil, err
	}
	c := &Controller{
		policy: policy,
		ladder: ladder,
		levels: make([]int, len(coreCells)),
		temps:  make([]float64, len(coreCells)),
	}
	total := 0
	for _, cc := range coreCells {
		total += len(cc)
	}
	flat := make([]int, 0, total)
	c.cells = make([][]int, len(coreCells))
	for ci, cc := range coreCells {
		for _, i := range cc {
			if i < 0 {
				return nil, fmt.Errorf("governor: core %d has negative cell index %d", ci, i)
			}
		}
		flat = append(flat, cc...)
		c.cells[ci] = flat[len(flat)-len(cc) : len(flat) : len(flat)]
	}
	var err error
	if c.hottest, err = mat.NewMaxSets(c.cells); err != nil {
		return nil, fmt.Errorf("governor: %w", err)
	}
	for i := range c.levels {
		c.levels[i] = len(ladder) - 1
	}
	return c, nil
}

// Step reads each core's hottest cell from mapC (°C, length = grid cells),
// runs the policy and returns the per-core ladder levels for the next
// interval. The returned slice is the controller's own — copy it to retain.
func (c *Controller) Step(mapC []float64) []int {
	c.StepInto(c.levels, mapC)
	return c.levels
}

// StepInto is Step writing the levels into dst (length Cores()) instead of
// returning the controller's slice; it returns the number of cores left
// below the top level, as Throttled does afterwards. The copy and the
// count share one pass over the fresh levels.
func (c *Controller) StepInto(dst []int, mapC []float64) int {
	// Each core's hottest cell, scanned in the core's cell order with the
	// first of equal values winning; a core with no cells reads 0.
	temps := c.temps[:len(c.cells)]
	c.hottest.MaxInto(temps, mapC)
	c.policy.Act(temps, c.levels)
	dst = dst[:len(c.levels)]
	top := len(c.ladder) - 1
	n := 0
	for k, l := range c.levels {
		n += b2i(l < top)
		dst[k] = l
	}
	c.throttled = n
	return n
}

// Levels returns the current per-core ladder levels (the controller's own
// slice — copy to retain).
func (c *Controller) Levels() []int { return c.levels }

// Freq returns the relative frequency of ladder level lvl.
func (c *Controller) Freq(lvl int) float64 { return c.ladder[lvl] }

// Ladder returns the validated ladder (a copy).
func (c *Controller) Ladder() []float64 { return append([]float64(nil), c.ladder...) }

// Cores returns the number of governed cores.
func (c *Controller) Cores() int { return len(c.cells) }

// Policy returns the bound policy's name.
func (c *Controller) Policy() string { return c.policy.Name() }

// Throttled returns how many cores the last Step left below the top ladder
// level (0 before the first Step: every core starts at nominal).
func (c *Controller) Throttled() int { return c.throttled }
