package main

import (
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/governor"
	"repro/internal/mat"
	"repro/internal/wire"
)

// POST /v1/monitors/{id}/govern — the streaming-control route. A client
// (the platform's thermal-management agent) streams sensor readings exactly
// as it would to /estimate; the daemon reconstructs the map, runs the
// monitor's governor over it and returns, per snapshot, the estimate digest
// it acted on plus the per-core DVFS cap decisions the client should apply
// for the next interval. The first request must carry a "config" object
// (policy, ceiling, optional ladder and tuning); later requests stream bare
// readings through the installed governor, whose control state (hysteresis
// latches, PI integrals, cumulative duty) persists across requests — and
// across drift adaptations, which swap the estimator but never the cap
// schedule the plant is already running under. A config takes over only
// once its batch is estimated: a refused request leaves the running
// governor in place.
//
// Both protocols are served through serve: JSON, and application/x-emaps
// wire v2 (EMGQ / EMGS frames). The control step is stage-attributed as the
// "govern" span in the flight recorder, between drift scoring and encode.

// governorState is one monitor's installed governor: the controller plus
// cumulative closed-loop counters. mu serializes control steps — cap
// decisions are order-dependent state, so concurrent govern batches are
// applied one at a time.
type governorState struct {
	mu        sync.Mutex
	ctrl      *governor.Controller
	ladder    []float64 // immutable response copy (Controller.Ladder allocates)
	jsonHead  []byte    // pre-rendered `","ladder":[…],"cores":N,"decisions":[`
	ceilingC  float64
	snapshots uint64
	throttled uint64 // throttled core-steps
}

// stats snapshots the governor's cumulative counters for the metrics
// exposition: governed snapshots and the throttle duty over them.
func (g *governorState) stats() (snapshots uint64, duty float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.snapshots > 0 {
		duty = float64(g.throttled) / float64(g.snapshots*uint64(g.ctrl.Cores()))
	}
	return g.snapshots, duty
}

// buildGovernor constructs a fresh governor for the monitor serving rs from
// a config, mapping each degenerate-config class onto its stable error code.
func (s *server) buildGovernor(w http.ResponseWriter, rs *residentState, cfg *wire.GovernConfig) (*governorState, bool) {
	if cfg.Ladder != nil {
		if err := governor.ValidateLadder(cfg.Ladder); err != nil {
			httpError(w, http.StatusBadRequest, "bad_ladder", "%v", err)
			return nil, false
		}
	}
	policy, err := governor.NewPolicy(cfg.Policy, governor.Params{
		CeilingC: cfg.CeilingC,
		TripC:    cfg.TripC,
		SetC:     cfg.SetC, ClearC: cfg.ClearC,
		TargetC: cfg.TargetC, Kp: cfg.Kp, Ki: cfg.Ki,
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_policy", "%v", err)
		return nil, false
	}
	raster := rs.fp.Rasterize(rs.model.Grid)
	ctrl, err := governor.NewController(policy, cfg.Ladder, governor.CoreCells(rs.fp, raster))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_policy", "%v", err)
		return nil, false
	}
	g := &governorState{ctrl: ctrl, ladder: ctrl.Ladder(), ceilingC: cfg.CeilingC}
	// The ladder and core count never change for an installed governor, so
	// their JSON rendering is computed once here, not per response.
	g.jsonHead = append(g.jsonHead, `","ladder":[`...)
	for i, f := range g.ladder {
		if i > 0 {
			g.jsonHead = append(g.jsonHead, ',')
		}
		g.jsonHead = appendNumber(g.jsonHead, f)
	}
	g.jsonHead = append(g.jsonHead, `],"cores":`...)
	g.jsonHead = strconv.AppendInt(g.jsonHead, int64(ctrl.Cores()), 10)
	g.jsonHead = append(g.jsonHead, `,"decisions":[`...)
	return g, true
}

// governorFor resolves the governor a govern request runs: a new one built
// from cfg, which serve installs only once the batch is estimated, or else
// the installed one.
func (s *server) governorFor(w http.ResponseWriter, e *monitorEntry, rs *residentState, cfg *wire.GovernConfig) (*governorState, bool) {
	if cfg != nil {
		return s.buildGovernor(w, rs, cfg)
	}
	g := e.gov.Load()
	if g == nil {
		httpError(w, http.StatusBadRequest, "no_governor",
			"monitor %s has no governor; send a \"config\" object on the first govern request", e.id)
		return nil, false
	}
	return g, true
}

// step is the control step: it runs the governor over each estimated map
// of a batch in order, and fills sc.govern with one decision per map,
// carrying the map's summary, and with the governor's cumulative counters.
// Levels live back to back in sc.levels, so steady-state requests reuse
// the same storage.
func (g *governorState) step(sc *serveScratch, maps [][]float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cores := g.ctrl.Cores()
	resp := &sc.govern
	resp.Ladder, resp.Cores = g.ladder, cores
	if cap(resp.Decisions) < len(maps) {
		resp.Decisions = make([]wire.GovernDecision, len(maps))
	}
	resp.Decisions = resp.Decisions[:len(maps)]
	if cap(sc.levels) < len(maps)*cores {
		sc.levels = make([]int, len(maps)*cores)
	}
	for i, x := range maps {
		d := &resp.Decisions[i]
		d.MaxC, d.MinC, d.MeanC, d.MaxCell = mat.Summarize(x)
		d.Levels = sc.levels[i*cores : (i+1)*cores : (i+1)*cores]
		g.throttled += uint64(g.ctrl.StepInto(d.Levels, x))
	}
	g.snapshots += uint64(len(maps))
	resp.Snapshots = g.snapshots
	resp.ThrottleDuty = 0
	if g.snapshots > 0 && cores > 0 {
		resp.ThrottleDuty = float64(g.throttled) / float64(g.snapshots*uint64(cores))
	}
}

// appendGovernResponseJSON renders the govern reply without reflection, in
// the same hand-rendered style (and for the same profile-driven reason) as
// appendEstimateResponse. The quality field leads for fixed-offset
// classification; the remaining field order matches the struct tags. head
// is the governor's pre-rendered ladder+cores segment.
func appendGovernResponseJSON(buf []byte, resp *wire.GovernResponse, quality string, head []byte) []byte {
	buf = append(buf, `{"quality":"`...)
	buf = append(buf, quality...)
	buf = append(buf, head...)
	for i := range resp.Decisions {
		if i > 0 {
			buf = append(buf, ',')
		}
		d := &resp.Decisions[i]
		buf = append(buf, `{"max_c":`...)
		buf = appendNumber(buf, d.MaxC)
		buf = append(buf, `,"min_c":`...)
		buf = appendNumber(buf, d.MinC)
		buf = append(buf, `,"mean_c":`...)
		buf = appendNumber(buf, d.MeanC)
		buf = append(buf, `,"max_cell":`...)
		buf = strconv.AppendInt(buf, int64(d.MaxCell), 10)
		buf = append(buf, `,"levels":[`...)
		buf = appendLevels(buf, d.Levels)
		buf = append(buf, ']', '}')
	}
	buf = append(buf, `],"snapshots":`...)
	buf = strconv.AppendUint(buf, resp.Snapshots, 10)
	buf = append(buf, `,"throttle_duty":`...)
	buf = appendNumber(buf, resp.ThrottleDuty)
	return append(buf, '}', '\n')
}

// appendLevels writes a decision's ladder levels, comma-separated. Levels
// are ladder indices, one digit on any ladder of up to ten steps, so the
// buffer grows once for a digit and a comma per core and each level is two
// stores; a longer ladder's levels take the integer writer.
func appendLevels(buf []byte, levels []int) []byte {
	if len(levels) == 0 {
		return buf
	}
	n, m := len(buf), 2*len(levels)
	buf = slices.Grow(buf, m)
	out := buf[n : n+m]
	for k, l := range levels {
		if uint(l) > 9 {
			return appendLevelInts(buf[:n], levels)
		}
		pair := out[2*k : 2*k+2 : 2*k+2]
		pair[0], pair[1] = byte('0'+l), ','
	}
	return buf[:n+m-1]
}

func appendLevelInts(buf []byte, levels []int) []byte {
	for k, l := range levels {
		if k > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(l), 10)
	}
	return buf
}
