package main

import (
	"net/http"
	"sync"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Drift-aware serving: every calibrated monitor scores each snapshot's
// sensor-space reprojection residual (recon.ResidualInto — one M×M matvec,
// negligible next to the reconstruction GEMM), feeds an EWMA+CUSUM detector
// calibrated on the monitor's own training residuals, and stamps every
// response with the verdict as a "quality" field (JSON) or flags bits
// (binary). Out-of-OK monitors absorb their served estimates into a shadow
// incremental basis; after -adapt-after absorbed snapshots the daemon
// re-trains from the shadow, re-folds the operator, recalibrates the
// detector on recent traffic, persists the adapted generation to the store
// and hot-swaps the resident state — in-flight requests finish on the
// pointer they hold, so no request is ever dropped. When the residual
// energy concentrates on one sensor instead (a stuck or broken sensor, not
// workload drift), that sensor is excluded and the operator re-folds over
// the survivors, while clients keep sending full-length reading vectors.

// driftRingCap bounds the recent-readings ring used to recalibrate the
// detector at swap time. Rows are serving-space sensor vectors (M floats),
// so the ring is a few KB per monitor.
const driftRingCap = 128

// shadowBufCap is the shadow incremental basis's merge buffer: estimates
// are folded in batches of this many snapshots.
const shadowBufCap = 32

// driftState is the drift side of one resident monitor: the detector, the
// shadow basis absorbing out-of-distribution estimates, and the ring of
// recent sensor readings that recalibrates the detector after a swap.
// The detector has its own lock; mu guards the shadow, the ring and the
// swap itself (adaptation runs synchronously in the triggering request).
type driftState struct {
	det *drift.Detector

	mu       sync.Mutex
	cal      drift.Calibration
	shadow   *basis.Incremental
	ring     [][]float64 // recent serving-space readings, copies
	ringPos  int
	absorbed int
	swapped  bool // this state has been replaced; stop absorbing/triggering
}

// scratch buffer for the per-request residual energy accumulation (one
// serving-M slice); pooled so the hot path stays allocation-free.
type driftScratch struct {
	energy []float64
}

var driftScratchPool = sync.Pool{New: func() any { return new(driftScratch) }}

// qualityFor maps a drift verdict onto the wire protocol's quality bits.
func qualityFor(st drift.State) wire.Quality {
	switch st {
	case drift.StateDrifting:
		return wire.QualityDrifting
	case drift.StateDegraded:
		return wire.QualityDegraded
	}
	return wire.QualityOK
}

// calibrate fits the detector's baseline distribution: the reprojection
// residual of each serving-space reading row through mon's folded operator.
// Create passes the training ensemble sampled at the sensors, a hot-swap
// the ring of recent readings. Rows mon rejects are skipped.
func calibrate(mon *core.Monitor, rows [][]float64) (drift.Calibration, error) {
	m := len(mon.Sensors())
	rhos := make([]float64, 0, len(rows))
	per := make([][]float64, 0, len(rows))
	for _, row := range rows {
		resid := make([]float64, m)
		rho, err := mon.ResidualInto(resid, row)
		if err != nil {
			continue
		}
		rhos = append(rhos, rho)
		per = append(per, resid)
	}
	return drift.Calibrate(rhos, per)
}

// newDriftState wraps a calibration and a shadow basis seeded from the
// serving model (so adaptation refines the trained subspace rather than
// restarting from scratch). seedCount weights the seed against absorbed
// snapshots — the training ensemble size.
func newDriftState(cal drift.Calibration, model *core.Model, seedCount int) (*driftState, error) {
	det, err := drift.NewDetector(cal)
	if err != nil {
		return nil, err
	}
	if seedCount < 1 {
		seedCount = 1
	}
	shadow, err := basis.NewIncrementalFrom(model.Basis, model.Energy, seedCount, shadowBufCap)
	if err != nil {
		return nil, err
	}
	return &driftState{det: det, cal: cal, shadow: shadow}, nil
}

// clientWidth is the number of readings a client sends per snapshot: the
// monitor's sensor count, counting excluded sensors.
func (rs *residentState) clientWidth() int {
	if rs.origSensors != nil {
		return len(rs.origSensors)
	}
	return rs.mon.Reconstructor().M()
}

// setOrigSensors records orig as the client-facing sensor list of the
// monitor rs serves, and derives keep, the positions of the serving
// sensors within orig (nil when none is excluded). The serving sensors are
// orig in order, less any excluded ones; store validation guarantees that
// for a record.
func (rs *residentState) setOrigSensors(orig []int) {
	serving := rs.mon.Sensors()
	rs.origSensors, rs.keep = orig, nil
	if len(serving) == len(orig) {
		return
	}
	rs.keep = make([]int, 0, len(serving))
	for i, c := range orig {
		if len(rs.keep) < len(serving) && serving[len(rs.keep)] == c {
			rs.keep = append(rs.keep, i)
		}
	}
}

// compactReadings maps client-facing reading vectors onto the serving
// sensor subset after fault exclusions. With no exclusions (keep == nil)
// the rows pass through untouched; rows of unexpected length also pass
// through so the estimator reports the same length error a healthy monitor
// would.
func (rs *residentState) compactReadings(rows [][]float64) [][]float64 {
	if rs.keep == nil {
		return rows
	}
	out := make([][]float64, len(rows))
	for i, row := range rows {
		if len(row) != len(rs.origSensors) {
			out[i] = row
			continue
		}
		c := make([]float64, len(rs.keep))
		for j, idx := range rs.keep {
			c[j] = row[idx]
		}
		out[i] = c
	}
	return out
}

// feedDrift folds one served batch's residual evidence into the monitor's
// detector and returns the quality verdict stamped on the response. rows
// are serving-space readings (already compacted); maps, when non-nil, are
// the batch's reconstructions, which let the scorer reuse the projection
// the estimate already computed (readings minus sampled estimate) instead
// of re-running the M×M residual matvec per row. Out-of-OK batches are
// absorbed into the shadow basis; crossing the -adapt-after threshold (or a
// confirmed faulty sensor) triggers the swap synchronously.
func (s *server) feedDrift(e *monitorEntry, rs *residentState, rows, maps [][]float64, tr *obs.Trace) drift.State {
	ds := rs.drift
	if ds == nil || len(rows) == 0 {
		return drift.StateOK
	}
	m := len(rs.mon.Sensors())
	sc := driftScratchPool.Get().(*driftScratch)
	if cap(sc.energy) < m {
		sc.energy = make([]float64, m)
	}
	energy := sc.energy[:m]
	// One batched scoring pass (wrong-length or non-finite rows are skipped;
	// they never reach here, but the scorer stays safe regardless).
	var rho float64
	var n int
	if maps != nil {
		rho, n, _ = rs.mon.ResidualStatsFromEstimates(energy, rows, maps)
	} else {
		rho, n, _ = rs.mon.ResidualStats(energy, rows)
	}
	if n > 0 {
		ds.rememberBatch(rows, m)
		ds.det.Observe(rho, energy, n)
	}
	driftScratchPool.Put(sc)
	st := ds.det.State()
	tr.Mark(obs.StageDriftScore)
	if st != drift.StateOK {
		if faulty := ds.det.FaultySensor(); faulty >= 0 {
			s.excludeSensor(e, rs, faulty)
		} else if s.adaptAfter > 0 {
			s.absorbForAdaptation(e, rs, n)
		}
		tr.Mark(obs.StageAdapt)
	}
	return st
}

// rememberBatch pushes one served batch's serving-space readings into the
// recalibration ring under a single lock acquisition — the hot path calls
// this once per request, not once per row. Rows whose length disagrees
// with the serving width (they failed ResidualInto above) are skipped.
func (ds *driftState) rememberBatch(rows [][]float64, m int) {
	ds.mu.Lock()
	for _, row := range rows {
		if len(row) != m {
			continue
		}
		if len(ds.ring) < driftRingCap {
			ds.ring = append(ds.ring, append([]float64(nil), row...))
		} else {
			copy(ds.ring[ds.ringPos], row)
		}
		ds.ringPos = (ds.ringPos + 1) % driftRingCap
	}
	ds.mu.Unlock()
}

// absorbForAdaptation feeds the batch's estimates into the shadow basis and
// triggers the adaptation swap once -adapt-after snapshots have been
// absorbed while out of OK. The estimates themselves live in the old
// subspace, but their mean tracks the drifted workload through the
// operator, so the adapted basis re-centers on where the traffic actually
// lives — and the post-swap recalibration rebases the thresholds on it.
func (s *server) absorbForAdaptation(e *monitorEntry, rs *residentState, n int) {
	ds := rs.drift
	ds.mu.Lock()
	if ds.swapped {
		ds.mu.Unlock()
		return
	}
	for _, row := range ds.lastRows(n) {
		x := make([]float64, rs.mon.N())
		if err := rs.mon.EstimateInto(x, row); err == nil {
			ds.shadow.Add(x)
			ds.absorbed++
		}
	}
	trigger := ds.absorbed >= s.adaptAfter
	ds.mu.Unlock()
	if trigger {
		s.adaptMonitor(e, rs)
	}
}

// lastRows returns the n most recently remembered rows (serving space),
// newest first. ringPos is the slot the next row goes to, so the newest
// rows sit just below it, also while the ring is filling. Caller holds
// ds.mu.
func (ds *driftState) lastRows(n int) [][]float64 {
	n = min(n, len(ds.ring))
	out := make([][]float64, n)
	for i := range out {
		out[i] = ds.ring[(ds.ringPos-1-i+driftRingCap)%driftRingCap]
	}
	return out
}

// adaptMonitor is the global-drift response: snapshot the shadow basis,
// re-fold the operator over the same sensors, recalibrate on recent
// traffic, persist the next generation and hot-swap the resident state.
// Runs synchronously in the triggering request; concurrent requests keep
// serving on the state they already hold.
func (s *server) adaptMonitor(e *monitorEntry, rs *residentState) {
	ds := rs.drift
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.swapped || e.res.Load() != rs {
		return
	}
	adapted, err := ds.shadow.Snapshot()
	if err != nil || adapted.KMax() < rs.mon.K() {
		s.logf("adapt", "id", e.id, "err", err)
		return
	}
	model := &core.Model{Basis: adapted, Energy: ds.shadow.Energy(), Grid: adapted.Grid}
	newRS, err := s.swappedState(e, rs, model, rs.mon.Sensors(), -1)
	if err != nil {
		s.logf("adapt", "id", e.id, "err", err)
		return
	}
	ds.swapped = true
	s.commitSwap(e, newRS)
	s.metrics.adaptations.Add(1)
	if s.logger != nil {
		s.logger.Info("adapted monitor", "id", e.id, "generation", newRS.generation)
	}
}

// excludeSensor is the faulty-sensor response: drop the attributed sensor,
// re-fold the operator over the survivors (clients keep sending full-length
// vectors; the daemon compacts them), recalibrate, persist, hot-swap.
func (s *server) excludeSensor(e *monitorEntry, rs *residentState, pos int) {
	ds := rs.drift
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.swapped || e.res.Load() != rs {
		return
	}
	sensors := rs.mon.Sensors()
	if pos < 0 || pos >= len(sensors) || len(sensors)-1 < rs.mon.K() {
		// Cannot drop below K sensors: the monitor would be underdetermined.
		// Leave the degraded verdict standing for the operator to see.
		return
	}
	survivors := make([]int, 0, len(sensors)-1)
	survivors = append(survivors, sensors[:pos]...)
	survivors = append(survivors, sensors[pos+1:]...)
	newRS, err := s.swappedState(e, rs, rs.model, survivors, pos)
	if err != nil {
		s.logf("exclude sensor", "id", e.id, "pos", pos, "err", err)
		return
	}
	ds.swapped = true
	s.commitSwap(e, newRS)
	s.metrics.adaptations.Add(1)
	s.metrics.sensorFaults.Add(1)
	if s.logger != nil {
		s.logger.Info("excluded faulty sensor", "id", e.id, "cell", sensors[pos],
			"generation", newRS.generation, "serving_m", len(survivors))
	}
}

// swappedState builds the next-generation resident state: a monitor folded
// from model over sensors, a rebuilt tracker, a detector recalibrated on
// the ring of recent readings and a fresh shadow. drop >= 0 is the serving
// position excluded from the old sensor vector, and is removed from every
// ring row first (-1 for same-sensors adaptation). Caller holds
// rs.drift.mu.
func (s *server) swappedState(e *monitorEntry, rs *residentState, model *core.Model, sensors []int, drop int) (*residentState, error) {
	mon, err := model.NewMonitor(rs.mon.K(), sensors)
	if err != nil {
		return nil, err
	}
	next, err := newResident(mon, model, rs.meta, rs.fp)
	if err != nil {
		return nil, err
	}
	ds := rs.drift
	rows := ds.ring
	if drop >= 0 {
		rows = make([][]float64, len(ds.ring))
		for i, row := range ds.ring {
			rows[i] = removeAt(row, drop)
		}
	}
	cal, err := calibrate(mon, rows)
	if err != nil {
		// Too little recent traffic to refit (cannot happen in practice: the
		// detector needs 16 observations to leave OK, and each fills the
		// ring). Rebase on the old moments so the detector stays alive.
		cal = ds.cal
		if drop >= 0 {
			cal.SensorMean = removeAt(cal.SensorMean, drop)
			cal.SensorStd = removeAt(cal.SensorStd, drop)
		}
	}
	if next.drift, err = newDriftState(cal, model, ds.shadow.Count()); err != nil {
		return nil, err
	}
	next.generation, next.parentKey = rs.generation+1, e.desc.TrainKey
	orig := rs.origSensors
	if orig == nil {
		orig = rs.mon.Sensors()
	}
	next.setOrigSensors(orig)
	return next, nil
}

// commitSwap persists the next generation and publishes it. The atomic
// store is the hot-swap: requests that loaded the old state finish on it,
// every later request sees the adapted monitor. Persisting is best-effort
// here: the monitor was acknowledged at create, and a record that could
// not be rewritten leaves the previous generation on disk.
func (s *server) commitSwap(e *monitorEntry, newRS *residentState) {
	_ = s.persistMonitor(e, newRS) // failure already counted and logged
	e.res.Store(newRS)
	s.registerResident(e)
}

func removeAt[T any](xs []T, i int) []T {
	out := make([]T, 0, len(xs)-1)
	out = append(out, xs[:i]...)
	return append(out, xs[i+1:]...)
}

// handleMonitorStats serves GET /v1/monitors/{id}: the monitor's identity,
// lineage and live drift verdict — what an operator checks before deciding
// between re-training and letting adaptation run (see docs/OPERATIONS.md).
func (s *server) handleMonitorStats(w http.ResponseWriter, e *monitorEntry) {
	rs, ok := s.residentHTTP(w, e)
	if !ok {
		return
	}
	out := map[string]any{
		"id":               e.id,
		"floorplan":        e.desc.Floorplan,
		"grid_w":           e.desc.GridW,
		"grid_h":           e.desc.GridH,
		"k":                rs.mon.K(),
		"m":                rs.clientWidth(),
		"serving_m":        len(rs.mon.Sensors()),
		"sensors":          rs.mon.Sensors(),
		"tracking":         rs.kf != nil,
		"snapshots_served": e.snapshots.Load(),
		"train_key":        e.desc.TrainKey,
		"generation":       rs.generation,
		"parent_key":       rs.parentKey,
		"calibrated":       rs.drift != nil,
	}
	if rs.drift == nil {
		out["drift_state"] = "uncalibrated"
	} else {
		st := rs.drift.det.Status()
		out["drift_state"] = st.State.String()
		out["drift_ewma"] = st.EWMA
		out["drift_cusum"] = st.CUSUM
		out["drift_observations"] = st.Observations
		out["faulty_sensor"] = st.FaultySensor
	}
	if rs.keep != nil {
		out["excluded_sensors"] = diffSensors(rs.origSensors, rs.mon.Sensors())
	}
	writeJSON(w, http.StatusOK, out)
}

// diffSensors returns the cells in orig that are not in serving (both are
// ordered, serving is a subset of orig).
func diffSensors(orig, serving []int) []int {
	out := []int{}
	j := 0
	for _, c := range orig {
		if j < len(serving) && serving[j] == c {
			j++
			continue
		}
		out = append(out, c)
	}
	return out
}
