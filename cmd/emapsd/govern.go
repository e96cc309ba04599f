package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/governor"
	"repro/internal/obs"
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
// schedule the plant is already running under.
//
// Both protocols are served: JSON, and application/x-emaps wire v2 (EMGQ /
// EMGS frames). The control step is stage-attributed as the "govern" span in
// the flight recorder, between drift scoring and encode.

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

// governScratch is pooled per-request response state: the decision list and
// one flat backing array for every decision's levels. The response is
// encoded and written before the handler returns, so steady-state govern
// requests reuse the same storage — mirroring readingsPool/responsePool on
// the estimate route.
type governScratch struct {
	resp wire.GovernResponse
	flat []int
}

var governPool = sync.Pool{New: func() any { return new(governScratch) }}

// governHTTPRequest is the JSON shape of a govern request. Readings reuse
// the pooled fast scanner; the config object (first request, or an explicit
// reconfigure) goes through encoding/json — it is a dozen scalars.
type governHTTPRequest struct {
	Config   *wire.GovernConfig `json:"config"`
	Readings json.RawMessage    `json:"readings"`
}

// parseGovernRequest is the govern route's fast path on the shared walker:
// a body whose keys are among config and readings. The readings reuse the
// estimate route's pooled scanner; the config object (a dozen scalars,
// absent entirely on steady-state requests) goes through encoding/json,
// which also finds where it ends. A repeated config merges into the first,
// as encoding/json decodes into a non-nil pointer. ok=false defers the
// whole body to encoding/json.
func parseGovernRequest(b *readingsBuf, data []byte) (rows [][]float64, cfg *wire.GovernConfig, ok bool) {
	b.flat, b.ends = b.flat[:0], b.ends[:0]
	ok = walkObject(data, func(key []byte, i int) (int, bool) {
		switch string(key) {
		case "readings":
			return b.readingsAt(data, i)
		case "config":
			next := cfg
			dec := json.NewDecoder(bytes.NewReader(data[i:]))
			if dec.Decode(&next) != nil {
				return 0, false
			}
			cfg = next
			return skipSpace(data, i+int(dec.InputOffset())), true
		}
		return 0, false
	})
	if !ok {
		return nil, nil, false
	}
	return b.buildRows(), cfg, true
}

// decodeGovernJSON decodes a govern body the walker did not claim through
// encoding/json, the authority on such bodies. It is a function of its
// own so that the fallback's &readings does not move the fast path's
// readings to the heap on every request.
func decodeGovernJSON(data []byte) (readings [][]float64, cfg *wire.GovernConfig, err error) {
	var req governHTTPRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, nil, fmt.Errorf("bad JSON: %v", err)
	}
	if len(req.Readings) > 0 && string(req.Readings) != "null" {
		if err := json.Unmarshal(req.Readings, &readings); err != nil {
			return nil, nil, fmt.Errorf("bad readings: %v", err)
		}
	}
	return readings, req.Config, nil
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
		g.jsonHead = strconv.AppendFloat(g.jsonHead, f, 'g', -1, 64)
	}
	g.jsonHead = append(g.jsonHead, `],"cores":`...)
	g.jsonHead = strconv.AppendInt(g.jsonHead, int64(ctrl.Cores()), 10)
	g.jsonHead = append(g.jsonHead, `,"decisions":[`...)
	return g, true
}

// governorFor resolves the monitor's governor: install from cfg when one is
// supplied, otherwise require one to exist already.
func (s *server) governorFor(w http.ResponseWriter, e *monitorEntry, rs *residentState, cfg *wire.GovernConfig) (*governorState, bool) {
	if cfg != nil {
		g, ok := s.buildGovernor(w, rs, cfg)
		if !ok {
			return nil, false
		}
		e.gov.Store(g)
		return g, true
	}
	g := e.gov.Load()
	if g == nil {
		httpError(w, http.StatusBadRequest, "no_governor",
			"monitor %s has no governor; send a \"config\" object on the first govern request", e.id)
		return nil, false
	}
	return g, true
}

// governBatch is the compute path shared by both protocols: estimate the
// maps, score drift, then run the control step over each estimated map in
// order. Returns the response to encode.
func (s *server) governBatch(w http.ResponseWriter, e *monitorEntry, rs *residentState, g *governorState, readings [][]float64, tr *obs.Trace) (*governScratch, wire.Quality, bool) {
	if !s.checkBatch(w, readings) {
		return nil, 0, false
	}
	readings = rs.compactReadings(readings)
	maps, done, err := s.estimateMaps(rs, readings, tr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_readings", "estimate: %v", err)
		return nil, 0, false
	}
	defer done()
	quality := s.feedDrift(e, rs, readings, maps, tr)
	s.snapshots.Add(int64(len(maps)))
	e.snapshots.Add(int64(len(maps)))

	g.mu.Lock()
	ctrl := g.ctrl
	cores := ctrl.Cores()
	sc := governPool.Get().(*governScratch)
	resp := &sc.resp
	resp.Ladder = g.ladder
	resp.Cores = cores
	if cap(resp.Decisions) < len(maps) {
		resp.Decisions = make([]wire.GovernDecision, len(maps))
	}
	resp.Decisions = resp.Decisions[:len(maps)]
	if cap(sc.flat) < len(maps)*cores {
		sc.flat = make([]int, len(maps)*cores)
	}
	flat := sc.flat[:len(maps)*cores]
	for i, x := range maps {
		sum := summarize(x, false)
		d := &resp.Decisions[i]
		d.MaxC, d.MinC, d.MeanC, d.MaxCell = sum.MaxC, sum.MinC, sum.MeanC, sum.MaxCell
		d.Levels = flat[i*cores : (i+1)*cores : (i+1)*cores]
		g.throttled += uint64(ctrl.StepInto(d.Levels, x))
	}
	g.snapshots += uint64(len(maps))
	resp.Snapshots = g.snapshots
	resp.ThrottleDuty = 0
	if g.snapshots > 0 && cores > 0 {
		resp.ThrottleDuty = float64(g.throttled) / float64(g.snapshots*uint64(cores))
	}
	g.mu.Unlock()
	tr.Mark(obs.StageGovern)
	return sc, qualityFor(quality), true
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
		buf = strconv.AppendFloat(buf, d.MaxC, 'g', -1, 64)
		buf = append(buf, `,"min_c":`...)
		buf = strconv.AppendFloat(buf, d.MinC, 'g', -1, 64)
		buf = append(buf, `,"mean_c":`...)
		buf = strconv.AppendFloat(buf, d.MeanC, 'g', -1, 64)
		buf = append(buf, `,"max_cell":`...)
		buf = strconv.AppendInt(buf, int64(d.MaxCell), 10)
		buf = append(buf, `,"levels":[`...)
		for k, l := range d.Levels {
			if k > 0 {
				buf = append(buf, ',')
			}
			// Ladder levels are tiny ints (almost always one digit).
			if uint(l) < 10 {
				buf = append(buf, byte('0'+l))
			} else {
				buf = strconv.AppendInt(buf, int64(l), 10)
			}
		}
		buf = append(buf, ']', '}')
	}
	buf = append(buf, `],"snapshots":`...)
	buf = strconv.AppendUint(buf, resp.Snapshots, 10)
	buf = append(buf, `,"throttle_duty":`...)
	buf = strconv.AppendFloat(buf, resp.ThrottleDuty, 'g', -1, 64)
	return append(buf, '}', '\n')
}

func (s *server) handleGovern(w http.ResponseWriter, r *http.Request, e *monitorEntry) {
	rs, ok := s.residentHTTP(w, e)
	if !ok || !limitBody(w, r, s.bodyLimit(rs)) {
		return
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType) {
		s.handleGovernBinary(w, r, e, rs)
		return
	}
	tr := traceOf(w)
	body := bodyPool.Get().(*bytes.Buffer)
	body.Reset()
	defer bodyPool.Put(body)
	if _, err := body.ReadFrom(r.Body); err != nil {
		badBody(w, err, "bad_json", "reading request: %v")
		return
	}
	buf := readingsPool.Get().(*readingsBuf)
	defer readingsPool.Put(buf)
	readings, cfg, ok := parseGovernRequest(buf, body.Bytes())
	if !ok {
		var err error
		if readings, cfg, err = decodeGovernJSON(body.Bytes()); err != nil {
			httpError(w, http.StatusBadRequest, "bad_json", "%v", err)
			return
		}
	}
	tr.Mark(obs.StageDecode)
	g, ok := s.governorFor(w, e, rs, cfg)
	if !ok {
		return
	}
	sc, quality, ok := s.governBatch(w, e, rs, g, readings, tr)
	if !ok {
		return
	}
	defer governPool.Put(sc)
	tr.Tail(obs.StageEncode)
	respBuf := responsePool.Get().(*[]byte)
	*respBuf = appendGovernResponseJSON((*respBuf)[:0], &sc.resp, quality.String(), g.jsonHead)
	s.writeResponse(w, "application/json", respBuf)
}

// handleGovernBinary serves one application/x-emaps govern request (EMGQ in,
// EMGS out). Errors keep the JSON envelope, as on every binary route.
func (s *server) handleGovernBinary(w http.ResponseWriter, r *http.Request, e *monitorEntry, rs *residentState) {
	tr := traceOf(w)
	body := bodyPool.Get().(*bytes.Buffer)
	body.Reset()
	defer bodyPool.Put(body)
	if _, err := body.ReadFrom(r.Body); err != nil {
		badBody(w, err, "bad_frame", "reading request: %v")
		return
	}
	scratch := wireBufPool.Get().(*wire.ReadingsBuf)
	defer wireBufPool.Put(scratch)
	req, err := wire.DecodeGovernRequest(body.Bytes(), scratch)
	tr.Mark(obs.StageDecode)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_frame", "%v", err)
		return
	}
	g, ok := s.governorFor(w, e, rs, req.Config)
	if !ok {
		return
	}
	sc, quality, ok := s.governBatch(w, e, rs, g, req.Readings, tr)
	if !ok {
		return
	}
	defer governPool.Put(sc)
	sc.resp.Quality = quality
	tr.Tail(obs.StageEncode)
	respBuf := responsePool.Get().(*[]byte)
	defer responsePool.Put(respBuf)
	out, err := wire.AppendGovernResponse((*respBuf)[:0], &sc.resp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "internal", "encode: %v", err)
		return
	}
	*respBuf = out
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(out); err != nil && s.logger != nil {
		s.logger.Error("write response", "err", err)
	}
}
