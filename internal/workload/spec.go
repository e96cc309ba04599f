// Package workload defines the declarative scenario-specification language
// that drives the power-trace engine, plus the named registry of built-in
// scenarios.
//
// A Spec is a JSON-serializable description of a workload's dynamics: a
// phase schedule of Markov transition-rate regimes, optional bursty (MMPP)
// arrival modulation, a task-migration policy (periodic rebalancing and/or
// a per-step migration Markov chain), an optional DVFS ladder, and periodic
// per-kind duty envelopes. Specs carry no random state of their own — the
// engine in internal/power seeds one RNG per generator, so a (spec, seed)
// pair reproduces its trace bit-for-bit.
//
// The four scenarios the repository historically shipped as enum arms
// (web, compute, mixed, idle) are expressed as registry specs here; the
// power engine's enum path delegates to them, so the presets are one
// definition, not two (see DESIGN.md, "Declarative workload engine").
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Rates are the per-step probabilities of the per-core activity Markov
// chain: idle → busy, busy → idle, busy → fpu, fpu → busy. All lie in
// [0, 1], and BusyToIdle + BusyToFPU must not exceed 1 (they compete for
// the same transition draw).
type Rates struct {
	IdleToBusy float64 `json:"idle_to_busy"`
	BusyToIdle float64 `json:"busy_to_idle"`
	BusyToFPU  float64 `json:"busy_to_fpu"`
	FPUToBusy  float64 `json:"fpu_to_busy"`
}

func (r Rates) validate(ctx string) error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"idle_to_busy", r.IdleToBusy},
		{"busy_to_idle", r.BusyToIdle},
		{"busy_to_fpu", r.BusyToFPU},
		{"fpu_to_busy", r.FPUToBusy},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("workload: %s: rate %s = %v outside [0,1]", ctx, p.name, p.v)
		}
	}
	if r.BusyToIdle+r.BusyToFPU > 1 {
		return fmt.Errorf("workload: %s: busy_to_idle + busy_to_fpu = %v exceeds 1",
			ctx, r.BusyToIdle+r.BusyToFPU)
	}
	return nil
}

// Phase is one regime of a phase schedule. Phases run in Steps-long
// segments and cycle; a single phase with Steps == 0 runs forever.
type Phase struct {
	Name  string `json:"name,omitempty"`
	Steps int    `json:"steps,omitempty"`
	Rates Rates  `json:"rates"`
}

// Arrival modulates task arrivals with a two-state MMPP (Markov-modulated
// Poisson process): a hidden calm/burst chain scales the idle → busy rate
// by BurstFactor while in the burst state.
type Arrival struct {
	// BurstFactor multiplies idle_to_busy during bursts (the product is
	// capped at 1). Values below 1 model lulls instead of bursts.
	BurstFactor float64 `json:"burst_factor"`
	// PEnter / PExit are the per-step calm → burst and burst → calm
	// probabilities of the modulating chain.
	PEnter float64 `json:"p_enter"`
	PExit  float64 `json:"p_exit"`
}

// Migration describes OS task rebalancing. Period is the deterministic
// rebalance interval in steps; zero or negative disables periodic
// rebalancing. Rate adds a per-step probability of an extra migration —
// an explicit task-migration Markov chain on top of the periodic policy.
type Migration struct {
	Period int     `json:"period,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
}

// DVFS is a discrete frequency ladder with utilization-threshold governor
// semantics: a core steps up when its smoothed utilization exceeds UpAt and
// down when it falls below DownAt, at most once every Hold steps. Core
// dynamic power scales with the cube of the level (f·V² with V ∝ f).
type DVFS struct {
	// Levels are relative frequencies in (0, 1], ascending; the last entry
	// is nominal frequency. Cores start at the top level.
	Levels []float64 `json:"levels"`
	UpAt   float64   `json:"up_at"`
	DownAt float64   `json:"down_at"`
	Hold   int       `json:"hold,omitempty"`
}

// Envelope is a periodic duty modulation applied to the activity feeding a
// block kind's power model: activity is multiplied by a Shape-waveform
// oscillating between Min and Max over Period steps. Modulated activity is
// clamped back to [0, 1] for every activity-coupled kind (core, cache,
// crossbar, fpu), so power-budget bounds survive any envelope; "other"
// blocks have constant power and the envelope scales their watts directly.
type Envelope struct {
	// Kind is "core", "cache", "crossbar", "fpu", "other", or "" for all.
	Kind string `json:"kind,omitempty"`
	// Period is the cycle length in steps (≥ 2).
	Period int `json:"period"`
	// Min and Max bound the multiplier, 0 ≤ Min ≤ Max.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Shape is "sine" (default), "square" or "saw".
	Shape string `json:"shape,omitempty"`
	// Phase offsets the waveform by this fraction of a period, in [0, 1).
	Phase float64 `json:"phase,omitempty"`
}

// envelopeKinds are the block kinds an Envelope may name (the empty string
// targets all kinds).
var envelopeKinds = map[string]bool{
	"": true, "core": true, "cache": true, "crossbar": true, "fpu": true, "other": true,
}

// envelopeShapes are the supported waveforms.
var envelopeShapes = map[string]bool{"": true, "sine": true, "square": true, "saw": true}

// Spec is a complete declarative workload scenario. The zero value is not
// valid: a Spec needs at least one phase. Specs are plain data — safe to
// marshal, copy with Clone, and share read-only across generators.
type Spec struct {
	// Name identifies the spec in the registry and in reports. Inline specs
	// (e.g. submitted to the daemon) may leave it empty.
	Name string `json:"name,omitempty"`
	// Family groups related specs for cross-scenario robustness reporting;
	// empty defaults to Name.
	Family string `json:"family,omitempty"`

	// Phases is the regime schedule (cycled). Required.
	Phases []Phase `json:"phases"`

	// Arrival, DVFS: optional dynamics; nil disables them.
	Arrival *Arrival `json:"arrival,omitempty"`
	DVFS    *DVFS    `json:"dvfs,omitempty"`

	// Migration is the task-rebalancing policy. A zero Period means no
	// periodic rebalancing.
	Migration Migration `json:"migration"`

	// Envelopes are periodic duty modulations, applied multiplicatively
	// when several target the same kind.
	Envelopes []Envelope `json:"envelopes,omitempty"`

	// LoadCoupling ∈ [0,1] blends per-core utilization targets with the
	// shared system-load level. A non-zero value is part of the scenario
	// definition and wins over power.Config.LoadCoupling, which only
	// supplies the default for specs that leave this zero.
	LoadCoupling float64 `json:"load_coupling,omitempty"`
}

// Validate checks the spec for out-of-range probabilities, degenerate
// schedules and malformed envelopes, returning a descriptive error for the
// first violation. Engines must only run validated specs.
func (s *Spec) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: spec %q has no phases", s.Name)
	}
	for i, ph := range s.Phases {
		ctx := fmt.Sprintf("spec %q phase %d", s.Name, i)
		if ph.Steps < 0 {
			return fmt.Errorf("workload: %s: negative steps %d", ctx, ph.Steps)
		}
		if len(s.Phases) > 1 && ph.Steps == 0 {
			return fmt.Errorf("workload: %s: steps must be positive in a multi-phase schedule", ctx)
		}
		if err := ph.Rates.validate(ctx); err != nil {
			return err
		}
	}
	if a := s.Arrival; a != nil {
		if a.BurstFactor < 0 {
			return fmt.Errorf("workload: spec %q: arrival burst_factor %v is negative", s.Name, a.BurstFactor)
		}
		if a.PEnter < 0 || a.PEnter > 1 || a.PExit < 0 || a.PExit > 1 {
			return fmt.Errorf("workload: spec %q: arrival probabilities (%v, %v) outside [0,1]",
				s.Name, a.PEnter, a.PExit)
		}
	}
	if m := s.Migration; m.Rate < 0 || m.Rate > 1 {
		return fmt.Errorf("workload: spec %q: migration rate %v outside [0,1]", s.Name, m.Rate)
	}
	if d := s.DVFS; d != nil {
		if len(d.Levels) == 0 {
			return fmt.Errorf("workload: spec %q: dvfs ladder has no levels", s.Name)
		}
		prev := 0.0
		for i, lv := range d.Levels {
			if lv <= 0 || lv > 1 {
				return fmt.Errorf("workload: spec %q: dvfs level %d = %v outside (0,1]", s.Name, i, lv)
			}
			if lv <= prev {
				return fmt.Errorf("workload: spec %q: dvfs levels must be strictly ascending", s.Name)
			}
			prev = lv
		}
		if d.DownAt < 0 || d.UpAt > 1 || d.DownAt >= d.UpAt {
			return fmt.Errorf("workload: spec %q: dvfs thresholds need 0 ≤ down_at < up_at ≤ 1, got (%v, %v)",
				s.Name, d.DownAt, d.UpAt)
		}
		if d.Hold < 0 {
			return fmt.Errorf("workload: spec %q: dvfs hold %d is negative", s.Name, d.Hold)
		}
	}
	for i, e := range s.Envelopes {
		if !envelopeKinds[e.Kind] {
			return fmt.Errorf("workload: spec %q: envelope %d targets unknown kind %q", s.Name, i, e.Kind)
		}
		if e.Period < 2 {
			return fmt.Errorf("workload: spec %q: envelope %d period %d below 2", s.Name, i, e.Period)
		}
		if e.Min < 0 || e.Max < e.Min {
			return fmt.Errorf("workload: spec %q: envelope %d needs 0 ≤ min ≤ max, got (%v, %v)",
				s.Name, i, e.Min, e.Max)
		}
		if !envelopeShapes[e.Shape] {
			return fmt.Errorf("workload: spec %q: envelope %d has unknown shape %q (want sine, square or saw)",
				s.Name, i, e.Shape)
		}
		if e.Phase < 0 || e.Phase >= 1 {
			return fmt.Errorf("workload: spec %q: envelope %d phase %v outside [0,1)", s.Name, i, e.Phase)
		}
	}
	if s.LoadCoupling < 0 || s.LoadCoupling > 1 {
		return fmt.Errorf("workload: spec %q: load_coupling %v outside [0,1]", s.Name, s.LoadCoupling)
	}
	return nil
}

// Cycle returns the total length of the phase schedule in steps (0 for a
// single free-running phase).
func (s *Spec) Cycle() int {
	if len(s.Phases) == 1 {
		return s.Phases[0].Steps
	}
	total := 0
	for _, ph := range s.Phases {
		total += ph.Steps
	}
	return total
}

// PhaseAt returns the phase governing the given step of the (cycled)
// schedule.
func (s *Spec) PhaseAt(step int) *Phase {
	cycle := s.Cycle()
	if cycle <= 0 {
		return &s.Phases[0]
	}
	pos := step % cycle
	for i := range s.Phases {
		if pos < s.Phases[i].Steps {
			return &s.Phases[i]
		}
		pos -= s.Phases[i].Steps
	}
	return &s.Phases[len(s.Phases)-1] // unreachable for validated specs
}

// Clone returns a deep copy, so callers can tweak a registry spec without
// mutating the shared definition.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Phases = append([]Phase(nil), s.Phases...)
	if s.Arrival != nil {
		a := *s.Arrival
		c.Arrival = &a
	}
	if s.DVFS != nil {
		d := *s.DVFS
		d.Levels = append([]float64(nil), s.DVFS.Levels...)
		c.DVFS = &d
	}
	c.Envelopes = append([]Envelope(nil), s.Envelopes...)
	return &c
}

// Decode parses a JSON spec, rejecting unknown fields (the schema-drift
// gate: a spec written for a newer field set fails loudly instead of
// silently dropping dynamics) and validating the result.
func Decode(data []byte) (*Spec, error) {
	var s Spec
	if err := unmarshalStrict(data, &s); err != nil {
		return nil, fmt.Errorf("workload: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode renders the spec as indented JSON (the committed-spec format).
func (s *Spec) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("workload: encode spec %q: %w", s.Name, err)
	}
	return append(out, '\n'), nil
}

// unmarshalStrict is json.Unmarshal with DisallowUnknownFields and a
// trailing-garbage check.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after spec document")
	}
	return nil
}
