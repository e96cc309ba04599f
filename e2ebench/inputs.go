package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/wire"
)

// loadCoupling is the core-utilization correlation emapsd generates every
// training ensemble with (defaultLoadCoupling in cmd/emapsd). The harness
// must simulate with the same value to rebuild the daemon's model
// in-process; the verification set fails the run if the two ever differ.
const loadCoupling = 0.75

// heldOutOffset separates a held-out trace's simulation seed from its
// training seed: same die, same workload mix, different random draws.
const heldOutOffset = 1_000_003

// trainSpec is one training configuration as a create request spells it.
// Monitors with equal trainSpecs share one model in the daemon's cache.
type trainSpec struct {
	Floorplan string
	GridW     int
	GridH     int
	Snapshots int
	Seed      int64
	KMax      int
}

func (t trainSpec) String() string {
	return fmt.Sprintf("%s %dx%d T=%d KMax=%d seed=%d", t.Floorplan, t.GridW, t.GridH, t.Snapshots, t.KMax, t.Seed)
}

// simulate runs dataset.Generate the way emapsd's create handler does: the
// default four-scenario mix at the daemon's load coupling. seedOffset 0
// reproduces the training ensemble; heldOutOffset gives held-out maps.
func (t trainSpec) simulate(seedOffset int64, snapshots int) (*dataset.Dataset, error) {
	fp, err := floorplan.Named(t.Floorplan)
	if err != nil {
		return nil, err
	}
	return dataset.Generate(fp, dataset.GenConfig{
		Grid:      floorplan.Grid{W: t.GridW, H: t.GridH},
		Snapshots: snapshots,
		Seed:      t.Seed + seedOffset,
		Power:     power.ConfigFor(fp, loadCoupling),
	})
}

// createBody renders the create request for a monitor of this training
// configuration. A nil sensors slice asks the daemon to place M sensors
// greedily.
func (t trainSpec) createBody(k, m int, sensors []int, tracking bool) ([]byte, error) {
	req := map[string]any{
		"floorplan": t.Floorplan, "grid_w": t.GridW, "grid_h": t.GridH,
		"snapshots": t.Snapshots, "seed": t.Seed, "kmax": t.KMax, "k": k, "m": m,
	}
	if sensors != nil {
		req["sensors"] = sensors
	}
	if tracking {
		req["tracking"] = true
	}
	return json.Marshal(req)
}

// layerTimes accumulates the harness's own spans around in-process calls
// into the create-path layers.
type layerTimes struct {
	generate, train, place, fold, calibrate, save time.Duration
}

// timed runs fn and adds its wall time to *sum.
func timed(sum *time.Duration, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*sum += time.Since(t0)
	return err
}

// die is one trained die of a serving workload, rebuilt in-process from the
// same inputs the daemon trains on: the reference monitor every estimate is
// checked against, the fixed verification set, and the held-out trace
// replayed as traffic.
type die struct {
	spec    trainSpec
	k, m, n int
	fp      *floorplan.Floorplan
	train   *dataset.Dataset
	model   *core.Model
	sensors []int
	ref     *core.Monitor

	// trace is the replayed traffic in simulation order, simulated at a
	// seed derived from the workload seed; readings are its maps sampled at
	// the reference sensors.
	trace    *dataset.Dataset
	readings [][]float64
	verify   *verifySet
}

// buildDie simulates and trains the die, places M sensors greedily, builds
// the verification set of verifyN snapshots and simulates a traffic trace
// of traceLen snapshots for the workload seed. The create-path calls are
// timed into lt.
func buildDie(spec trainSpec, k, m, verifyN, traceLen int, seed int64, lt *layerTimes) (*die, error) {
	d := &die{spec: spec, k: k, m: m, n: spec.GridW * spec.GridH}
	var err error
	if d.fp, err = floorplan.Named(spec.Floorplan); err != nil {
		return nil, err
	}
	if err := timed(&lt.generate, func() (err error) {
		d.train, err = spec.simulate(0, spec.Snapshots)
		return err
	}); err != nil {
		return nil, fmt.Errorf("%v: training ensemble: %w", spec, err)
	}
	if err := timed(&lt.train, func() (err error) {
		d.model, err = core.Train(d.train, core.TrainOptions{KMax: spec.KMax, Seed: spec.Seed})
		return err
	}); err != nil {
		return nil, fmt.Errorf("%v: train: %w", spec, err)
	}
	if err := timed(&lt.place, func() (err error) {
		d.sensors, err = d.model.PlaceSensors(m, core.PlaceOptions{K: k})
		return err
	}); err != nil {
		return nil, fmt.Errorf("%v: place: %w", spec, err)
	}
	// The reference fold is the harness's own; the daemon's folds are
	// replayed per create.
	if d.ref, err = d.model.NewMonitor(k, d.sensors); err != nil {
		return nil, fmt.Errorf("%v: fold: %w", spec, err)
	}
	if d.verify, err = d.newVerifySet(verifyN); err != nil {
		return nil, fmt.Errorf("%v: verification set: %w", spec, err)
	}
	if d.trace, err = spec.simulate(traceOffset(seed), traceLen); err != nil {
		return nil, fmt.Errorf("%v: held-out trace: %w", spec, err)
	}
	d.readings = sampleAll(d.trace, d.sensors)
	return d, nil
}

// traceOffset is the simulation-seed offset of the traffic trace for a
// workload seed; it never coincides with the verification set's.
func traceOffset(seed int64) int64 { return heldOutOffset + 7919*(seed+1) }

// sampleAll reads every map of ds at the given sensor cells, in order.
func sampleAll(ds *dataset.Dataset, sensors []int) [][]float64 {
	out := make([][]float64, ds.T())
	for i := range out {
		row := ds.Map(i)
		r := make([]float64, len(sensors))
		for j, c := range sensors {
			r[j] = row[c]
		}
		out[i] = r
	}
	return out
}

// calibrate replays the daemon's drift calibration of a fresh monitor: the
// reprojection residual of every training map, then drift.Calibrate.
func calibrate(mon *core.Monitor, train *dataset.Dataset) error {
	m := len(mon.Sensors())
	rhos := make([]float64, train.T())
	per := make([][]float64, train.T())
	for i := range rhos {
		row := make([]float64, m)
		rho, err := mon.ResidualInto(row, mon.Sample(train.Map(i)))
		if err != nil {
			return err
		}
		rhos[i], per[i] = rho, row
	}
	_, err := drift.Calibrate(rhos, per)
	return err
}

// verifySet is a fixed set of held-out snapshots sent with include_maps
// right after setup: the daemon's maps must match the reference monitor's
// to within verifyTol, and their error against the simulated ground truth
// is the reported reconstruction MSE.
type verifySet struct {
	readings [][]float64
	truth    [][]float64
	expect   [][]float64
}

// verifyTol is the largest accepted |daemon − reference| per cell, in °C.
const verifyTol = 1e-9

// newVerifySet takes n snapshots, evenly spaced so the set spans every
// workload phase of the mix, from a held-out simulation whose seed is fixed
// by the die alone: the set, and so recon_mse_c2, is the same for every
// workload seed.
func (d *die) newVerifySet(n int) (*verifySet, error) {
	const stride = 4
	sim, err := d.spec.simulate(heldOutOffset, stride*n)
	if err != nil {
		return nil, err
	}
	vs := &verifySet{}
	for i := 0; i < n; i++ {
		x := sim.Map(i * stride)
		vs.readings = append(vs.readings, d.ref.Sample(x))
		vs.truth = append(vs.truth, x)
	}
	vs.expect, err = d.ref.EstimateBatch(vs.readings, 1)
	return vs, err
}

// check compares the daemon's maps with the reference and returns the
// largest deviation plus the squared-error sum and cell count against the
// ground truth. A wrong shape or non-finite cell is an error.
func (vs *verifySet) check(maps [][]float64) (maxDiff, sqErr float64, cells int, err error) {
	if len(maps) != len(vs.expect) {
		return 0, 0, 0, fmt.Errorf("verification: %d maps for %d snapshots", len(maps), len(vs.expect))
	}
	for i, got := range maps {
		want := vs.expect[i]
		if len(got) != len(want) {
			return 0, 0, 0, fmt.Errorf("verification: map %d has %d cells, want %d", i, len(got), len(want))
		}
		for c, v := range got {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, 0, fmt.Errorf("verification: map %d cell %d is %v", i, c, v)
			}
			maxDiff = math.Max(maxDiff, math.Abs(v-want[c]))
			e := v - vs.truth[i][c]
			sqErr += e * e
		}
		cells += len(got)
	}
	return maxDiff, sqErr, cells, nil
}

// Request encodings. Every body replayed in a measured phase is encoded
// before the daemon starts.

func binaryEstimateBody(rows [][]float64, includeMaps bool) ([]byte, error) {
	return wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: rows, IncludeMaps: includeMaps})
}

func binaryGovernBody(rows [][]float64, cfg *wire.GovernConfig) ([]byte, error) {
	return wire.AppendGovernRequest(nil, &wire.GovernRequest{Readings: rows, Config: cfg})
}

// jsonReadingsBody renders {"readings":[[...],...]} with shortest
// round-trip floats, plus "include_maps":true when asked.
func jsonReadingsBody(rows [][]float64, includeMaps bool) []byte {
	b := []byte(`{"readings":[`)
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range r {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	b = append(b, ']')
	if includeMaps {
		b = append(b, `,"include_maps":true`...)
	}
	return append(b, '}')
}

// chunk returns the batch rows starting at snapshot start of a cyclic
// trace.
func chunk(trace [][]float64, start, batch int) [][]float64 {
	rows := make([][]float64, batch)
	for i := range rows {
		rows[i] = trace[(start+i)%len(trace)]
	}
	return rows
}
