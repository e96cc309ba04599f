package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// passResult is everything one pass (one daemon life per setup, the last
// one driven through warm-up and the measured phase) observed.
type passResult struct {
	// setups holds each setup's seconds of runnable time (wall time scaled
	// by the share the hypervisor did not steal); setupsWall the wall time.
	setups, setupsWall []float64
	mse                float64
	verify             verifyResult // of the last setup

	warm, meas *phaseStats
	// Scrapes of /metrics: after setup (m0), after warm-up (m1) and after
	// the measured phase (m2).
	m0, m1, m2 promSnapshot
	p1, p2     procSample // around the measured phase
	hwmBytes   int64

	// Create-path spans of the in-process layer calls, and the number of
	// daemon creates they stand for.
	layers  layerTimes
	creates int
	// createSnap holds the create route's samples behind createMS: the
	// setup's creates (serving workloads) or the measured ops (provision).
	createSnap promSnapshot
	// handlerRoutes are the routes one op's daemon time is spent in.
	handlerRoutes []string

	// windowed marks a serving pass, with hundreds of ops per second:
	// throughput is the median of one-second window rates and latencies are
	// scaled per window.
	windowed bool
	// byConfig splits provision's op latencies (ms of runnable time) by die
	// configuration.
	byConfig      [2][]float64
	poolExhausted bool
}

func (r *passResult) ops() int { return len(r.meas.lat) }

func (r *passResult) addSetup(wall time.Duration, steal float64) {
	r.setupsWall = append(r.setupsWall, wall.Seconds())
	r.setups = append(r.setups, wall.Seconds()*(1-steal))
}

// runServing brings the daemon up `setups` times (each a fresh process and
// store) and drives the last one through warm-up and the measured phase.
func runServing(o *options, w *servingWorkload, tag string, traced bool, setups int) (*passResult, error) {
	res := &passResult{windowed: true, handlerRoutes: []string{"estimate", "govern", "track"}}
	clients := make([]*http.Client, len(w.conns))
	for i := range clients {
		clients[i] = newClient()
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	var last *setupResult
	for s := 0; s < setups; s++ {
		sr, err := w.setup(o, clients[0], fmt.Sprintf("%s-setup%d", tag, s))
		if err != nil {
			if sr != nil && sr.d != nil {
				sr.d.stop()
			}
			return nil, fmt.Errorf("setup %d: %w", s, err)
		}
		res.addSetup(sr.wall, sr.steal)
		if s < setups-1 {
			sr.d.stop()
			clients[0].CloseIdleConnections()
		}
		last = sr
	}
	d := last.d
	defer d.stop()
	res.verify, res.mse = last.verify, last.verify.mse()
	var err error
	if res.m0, err = d.scrape(clients[0]); err != nil {
		return nil, err
	}
	res.createSnap = res.m0
	pick := w.pickers(o.seed)
	res.warm = w.runPhase(d.base, clients, pick, w.warmupOps, time.Time{}, traced, tag+"-warm")
	if res.m1, err = d.scrape(clients[0]); err != nil {
		return nil, err
	}
	if res.p1, err = d.sample(); err != nil {
		return nil, err
	}
	res.meas = w.runPhase(d.base, clients, pick, 0, time.Now().Add(o.duration()), traced, tag+"-meas")
	if res.p2, err = d.sample(); err != nil {
		return nil, err
	}
	if res.m2, err = d.scrape(clients[0]); err != nil {
		return nil, err
	}
	if res.hwmBytes, err = readVmHWM(d.pid()); err != nil {
		return nil, err
	}
	res.layers = w.layers
	res.creates = len(last.creates)
	if traced {
		if err := w.replayCreates(o, last.creates, last.storeDir, &res.layers); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(o.runDir, tag+"-spans.jsonl"), append(res.warm.spans, res.meas.spans...)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// replayCreates re-runs, in-process, the per-create layer calls the daemon
// made in the last setup: fold and drift calibration for every create, and
// (durable daemons) a save of every record it wrote. Simulation, training
// and placement ran once per die when the inputs were built, as they ran
// once per model in the daemon.
func (w *servingWorkload) replayCreates(o *options, creates []createCall, storeDir string, lt *layerTimes) error {
	byDie := map[trainSpec]*die{}
	for _, d := range w.dies {
		byDie[d.spec] = d
	}
	for _, c := range creates {
		d := byDie[c.spec]
		var mon *core.Monitor
		if err := timed(&lt.fold, func() (err error) {
			mon, err = d.model.NewMonitor(c.k, c.sensors)
			return err
		}); err != nil {
			return fmt.Errorf("replaying create %s: %w", c.id, err)
		}
		if err := timed(&lt.calibrate, func() error { return calibrate(mon, d.train) }); err != nil {
			return fmt.Errorf("replaying create %s: %w", c.id, err)
		}
	}
	if !w.durable {
		return nil
	}
	paths, _ := filepath.Glob(filepath.Join(storeDir, "*.emo[nd]"))
	for i, p := range paths {
		rec, err := store.LoadFile(p)
		if err != nil {
			return fmt.Errorf("reading %s: %w", p, err)
		}
		out := filepath.Join(o.runDir, fmt.Sprintf("replay-%d.emst", i))
		if err := timed(&lt.save, func() error { return store.SaveFile(out, rec) }); err != nil {
			return err
		}
		os.Remove(out)
	}
	return nil
}

// runProvision brings the daemon up `setups` times (each ending with one
// warm-up create → estimate) and runs ops on the last one until the run
// time is spent, finishing on a whole t1 + manycore pair.
func runProvision(o *options, p *provisionWorkload, tag string, traced bool, setups int) (*passResult, error) {
	res := &passResult{handlerRoutes: []string{"create", "estimate"}, meas: &phaseStats{}}
	client := newClient()
	defer client.CloseIdleConnections()
	var d *daemon
	var storeDir string
	for s := 0; s < setups; s++ {
		stag := fmt.Sprintf("%s-setup%d", tag, s)
		storeDir = filepath.Join(o.runDir, stag+"-store")
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return nil, err
		}
		sw, err := startWatch()
		if err != nil {
			return nil, err
		}
		if d, err = startDaemonRetry(o, stag, append(append([]string(nil), p.flags...), "-store-dir", storeDir)); err != nil {
			return nil, err
		}
		if err := d.waitHealthy(client, 30*time.Second); err != nil {
			d.stop()
			return nil, err
		}
		warm, err := p.run(client, d.base, p.warm, storeDir, false)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("setup %d warm-up op: %w", s, err)
		}
		wall, steal, err := sw.read()
		if err != nil {
			d.stop()
			return nil, err
		}
		res.addSetup(wall, steal)
		res.verify = verifyResult{monitors: 1, sqErr: warm.sqErr, cells: warm.cells}
		if s < setups-1 {
			d.stop()
			client.CloseIdleConnections()
		}
	}
	defer d.stop()
	var err error
	if res.m0, err = d.scrape(client); err != nil {
		return nil, err
	}
	res.m1 = res.m0
	if res.p1, err = d.sample(); err != nil {
		return nil, err
	}
	var results []*provResult
	start := time.Now()
	until := start.Add(o.duration())
	for i := 0; time.Now().Before(until) || i%2 == 1; i++ {
		if i == len(p.ops) {
			res.poolExhausted = true
			break
		}
		op := p.ops[i]
		res.meas.ops++
		r, err := p.run(client, d.base, op, storeDir, traced)
		if err != nil {
			res.meas.fail(err)
			continue
		}
		res.meas.solveFlop += 2 * float64(provBatch*op.cfg.m*len(op.truth[0]))
		res.byConfig[i%2] = append(res.byConfig[i%2], ms(r.lat)*(1-r.steal))
		res.meas.lat = append(res.meas.lat, float64(r.lat)/float64(time.Millisecond))
		res.meas.elapsed = time.Since(start)
		res.meas.ends = append(res.meas.ends, res.meas.elapsed)
		results = append(results, r)
	}
	if res.p2, err = d.sample(); err != nil {
		return nil, err
	}
	if res.m2, err = d.scrape(client); err != nil {
		return nil, err
	}
	if res.hwmBytes, err = readVmHWM(d.pid()); err != nil {
		return nil, err
	}
	res.mse = res.verify.mse()
	res.createSnap = res.m2.delta(res.m1)
	// Each op sends one estimate, so the solve stage is all GEMM.
	res.meas.solveMS = 1000 * res.createSnap.value("emapsd_stage_duration_seconds_sum", "stage", "solve")
	res.creates = len(results)
	if traced {
		for _, r := range results {
			if err := replayOp(r, o.runDir, &res.layers); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
