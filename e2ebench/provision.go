package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/wire"
)

// provConfig is one of the two die configurations provision alternates.
type provConfig struct {
	spec trainSpec // Seed is the warm-up op's; measured ops train at their own
	k, m int
	// heldOut is a pool of held-out maps of this die, simulated at the
	// workload seed; the config's j-th op reads snapshots [16j, 16j+16).
	heldOut *dataset.Dataset
}

// provOp is one create → first estimate: a fresh training seed, so the
// daemon simulates, trains, places and folds from scratch.
type provOp struct {
	cfg   *provConfig
	spec  trainSpec
	truth [][]float64 // provBatch held-out maps
}

// provBatch is the number of held-out snapshots in each op's first
// estimate.
const provBatch = 16

// provisionWorkload creates monitors: each op is create → one binary
// estimate of 16 held-out snapshots with maps → delete (the delete is not
// part of the op's latency). Ops alternate t1 at 60×56 and manycore-256c at
// 32×32. The daemon is durable with at most four models in memory.
type provisionWorkload struct {
	flags []string
	// warm is the untimed op that ends every setup. Its training seed and
	// held-out maps are fixed, so recon_mse_c2, taken from it, is the same
	// for every workload seed and run length.
	warm    provOp
	ops     []provOp
	genTime time.Duration
}

// newProvision prepares a pool of ops large enough for a run of the given
// length even if create becomes several times faster than today's ~1 s.
// Measured op i trains at a seed derived from the workload seed and reads
// its estimate's readings from a held-out pool simulated at that seed.
func newProvision(seed int64, seconds int) (*provisionWorkload, error) {
	t0 := time.Now()
	p := &provisionWorkload{flags: []string{"-max-models", "4", "-log-sample", "100"}}
	pool := 3*seconds + 8
	cfgs := []*provConfig{
		{spec: trainSpec{Floorplan: "t1", GridW: 60, GridH: 56, Snapshots: 192, Seed: trainingSeed, KMax: 24}, k: 16, m: 24},
		{spec: trainSpec{Floorplan: "manycore-256c", GridW: 32, GridH: 32, Snapshots: 384, Seed: trainingSeed, KMax: 16}, k: 12, m: 24},
	}
	perCfg := (pool + 1) / 2
	for _, c := range cfgs {
		var err error
		if c.heldOut, err = c.spec.simulate(traceOffset(seed), perCfg*provBatch); err != nil {
			return nil, fmt.Errorf("%v: held-out maps: %w", c.spec, err)
		}
	}
	warmMaps, err := cfgs[0].spec.simulate(heldOutOffset, provBatch)
	if err != nil {
		return nil, fmt.Errorf("%v: warm-up maps: %w", cfgs[0].spec, err)
	}
	p.warm = provOp{cfg: cfgs[0], spec: cfgs[0].spec}
	for j := 0; j < provBatch; j++ {
		p.warm.truth = append(p.warm.truth, warmMaps.Map(j))
	}
	for i := 0; i < pool; i++ {
		c := cfgs[i%2]
		op := provOp{cfg: c, spec: c.spec}
		op.spec.Seed = 1000*seed + int64(i) + 2 // never the warm-up op's seed
		for j := 0; j < provBatch; j++ {
			op.truth = append(op.truth, c.heldOut.Map((i/2)*provBatch+j))
		}
		p.ops = append(p.ops, op)
	}
	p.genTime = time.Since(t0)
	return p, nil
}

// provResult is one op as the harness observed it.
type provResult struct {
	op    provOp
	lat   time.Duration
	steal float64 // share of runnable vCPU time stolen during the op
	sqErr float64
	cells int
	// Traced runs keep the records the daemon wrote for the replay.
	model, monitor *store.Record
}

// run performs one op against the daemon and deletes the monitor again.
// storeDir is read (traced runs only) for the records the create wrote.
func (p *provisionWorkload) run(client *http.Client, base string, op provOp, storeDir string, traced bool) (*provResult, error) {
	var buf bytes.Buffer
	var before map[string]bool
	if traced {
		before = modelFiles(storeDir)
	}
	body, err := op.spec.createBody(op.cfg.k, op.cfg.m, nil, false)
	if err != nil {
		return nil, err
	}
	sw, err := startWatch()
	if err != nil {
		return nil, err
	}
	if _, err := do(client, http.MethodPost, base+"/v1/monitors", "application/json", body, "", &buf); err != nil {
		return nil, fmt.Errorf("create %v: %w", op.spec, err)
	}
	var cr createResponse
	if err := json.Unmarshal(buf.Bytes(), &cr); err != nil {
		return nil, fmt.Errorf("create %v: %w", op.spec, err)
	}
	rows := make([][]float64, len(op.truth))
	for i, x := range op.truth {
		r := make([]float64, len(cr.Sensors))
		for j, c := range cr.Sensors {
			if c < 0 || c >= len(x) {
				return nil, fmt.Errorf("create %v: sensor %d outside %d cells", op.spec, c, len(x))
			}
			r[j] = x[c]
		}
		rows[i] = r
	}
	est, err := binaryEstimateBody(rows, true)
	if err != nil {
		return nil, err
	}
	if _, err := do(client, http.MethodPost, base+"/v1/monitors/"+cr.ID+"/estimate", wire.ContentType, est, "", &buf); err != nil {
		return nil, fmt.Errorf("first estimate on %s: %w", cr.ID, err)
	}
	res := &provResult{op: op}
	if res.lat, res.steal, err = sw.read(); err != nil {
		return nil, err
	}
	maps, err := decodeMaps(buf.Bytes(), true)
	if err != nil {
		return nil, fmt.Errorf("first estimate on %s: %w", cr.ID, err)
	}
	if len(maps) != len(op.truth) {
		return nil, fmt.Errorf("first estimate on %s: %d maps for %d snapshots", cr.ID, len(maps), len(op.truth))
	}
	for i, x := range maps {
		if len(x) != len(op.truth[i]) || cr.N != len(x) {
			return nil, fmt.Errorf("first estimate on %s: map of %d cells, die has %d", cr.ID, len(x), len(op.truth[i]))
		}
		for c, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("first estimate on %s: cell %d is %v", cr.ID, c, v)
			}
			e := v - op.truth[i][c]
			res.sqErr += e * e
		}
		res.cells += len(x)
	}
	if traced {
		if res.monitor, err = store.LoadFile(filepath.Join(storeDir, cr.ID+".emon")); err != nil {
			return nil, fmt.Errorf("reading %s's record: %w", cr.ID, err)
		}
		for name := range modelFiles(storeDir) {
			if !before[name] {
				if res.model, err = store.LoadFile(filepath.Join(storeDir, name)); err != nil {
					return nil, fmt.Errorf("reading model record %s: %w", name, err)
				}
			}
		}
	}
	if _, err := do(client, http.MethodDelete, base+"/v1/monitors/"+cr.ID, "", nil, "", &buf); err != nil {
		return nil, fmt.Errorf("delete %s: %w", cr.ID, err)
	}
	return res, nil
}

// modelFiles lists the model records in a store directory.
func modelFiles(dir string) map[string]bool {
	names, _ := filepath.Glob(filepath.Join(dir, "model-*.emod"))
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[filepath.Base(n)] = true
	}
	return out
}

// replayOp re-runs one op's create-path layer calls in-process on the same
// inputs, through their public functions, and saves the records the daemon
// wrote into dir (each copy is removed again).
func replayOp(res *provResult, dir string, lt *layerTimes) error {
	op := res.op
	var ds *dataset.Dataset
	var mdl *core.Model
	var sensors []int
	var mon *core.Monitor
	steps := []struct {
		sum *time.Duration
		fn  func() error
	}{
		{&lt.generate, func() (err error) { ds, err = op.spec.simulate(0, op.spec.Snapshots); return err }},
		{&lt.train, func() (err error) {
			mdl, err = core.Train(ds, core.TrainOptions{KMax: op.spec.KMax, Seed: op.spec.Seed})
			return err
		}},
		{&lt.place, func() (err error) {
			sensors, err = mdl.PlaceSensors(op.cfg.m, core.PlaceOptions{K: op.cfg.k})
			return err
		}},
		{&lt.fold, func() (err error) { mon, err = mdl.NewMonitor(op.cfg.k, sensors); return err }},
		{&lt.calibrate, func() error { return calibrate(mon, ds) }},
	}
	for _, s := range steps {
		if err := timed(s.sum, s.fn); err != nil {
			return fmt.Errorf("replaying %v: %w", op.spec, err)
		}
	}
	if !slices.Equal(sensors, res.monitor.Sensors) {
		return fmt.Errorf("replaying %v: in-process placement %v differs from the daemon's %v", op.spec, sensors, res.monitor.Sensors)
	}
	for i, rec := range []*store.Record{res.model, res.monitor} {
		if rec == nil {
			return fmt.Errorf("replaying %v: the daemon wrote no model record", op.spec)
		}
		path := filepath.Join(dir, fmt.Sprintf("replay-%d.emst", i))
		if err := timed(&lt.save, func() error { return store.SaveFile(path, rec) }); err != nil {
			return err
		}
		os.Remove(path)
	}
	return nil
}
