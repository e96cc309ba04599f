package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/floorplan"
	"repro/internal/governor"
	"repro/internal/wire"
)

// servedMonitor is one monitor a serving workload creates and drives.
type servedMonitor struct {
	name     string
	die      *die
	tracking bool
	// reuse is the index of the monitor whose daemon-placed sensors this
	// create carries (siblings of one chip SKU); -1 places greedily.
	reuse  int
	route  string // "estimate", "govern" or "track"
	binary bool
	// govern is installed by the first govern request (govern monitors).
	govern *wire.GovernConfig
	// offset is the first chunk of the die's trace this monitor replays.
	offset int

	// Set at run time, per setup.
	id         string
	sensors    []int
	cursor     int
	configSent bool
}

// servingWorkload is a fleet of monitors on one daemon and the closed-loop
// traffic replayed against it. Each monitor is owned by exactly one
// connection, so it sees the same request sequence on every run.
type servingWorkload struct {
	name    string
	flags   []string // daemon flags besides -addr and -store-dir
	durable bool     // the daemon runs with a fresh -store-dir per setup
	batch   int      // snapshots per request

	dies     []*die
	monitors []*servedMonitor
	// conns lists each connection's monitors in zipf rank order (rank 0
	// hottest); a connection alternates through its monitors when zipfS is
	// 0.
	conns     [][]int
	zipfS     float64
	warmupOps int // per connection, before the measured phase

	// Pre-encoded traffic: per die, one body per chunk of the trace for
	// each request format, plus the verification body.
	bodies     map[bodyKey][][]byte
	firstBody  map[int][]byte // govern monitors: first chunk with the config
	verifyBody map[*die][]byte

	layers  layerTimes // in-process create-path spans (die builds, replays)
	genTime time.Duration
}

type bodyKey struct {
	die    *die
	format string // "bin-estimate", "bin-govern", "json"
}

func (m *servedMonitor) format() string {
	switch {
	case !m.binary:
		return "json"
	case m.route == "govern":
		return "bin-govern"
	}
	return "bin-estimate"
}

func (m *servedMonitor) ctype() string {
	if m.binary {
		return wire.ContentType
	}
	return "application/json"
}

// trainingSeed trains every serving die. The dies are part of a workload's
// definition, like the floorplan and the grid: every workload seed serves
// the same models, so accuracy and model-dependent costs do not move with
// the seed. The seed varies the replayed traffic: the held-out trace, each
// monitor's starting point in it and the zipf draws.
const trainingSeed = 1

// newDieBinary builds the paper-scale workload: the t1 floorplan on the
// paper's 60×56 grid, monitors A (binary estimate) and B (binary govern,
// PI governor) on the same 24 greedy sensors, one connection alternating
// between them with 16 snapshots per request.
func newDieBinary(seed int64) (*servingWorkload, error) {
	w := &servingWorkload{name: "die-binary", batch: 16, warmupOps: 1024,
		flags: []string{"-adapt-after", "0", "-log-sample", "100"}}
	t0 := time.Now()
	const traceLen = 1024
	d, err := buildDie(trainSpec{Floorplan: "t1", GridW: 60, GridH: 56, Snapshots: 192, Seed: trainingSeed, KMax: 24},
		16, 24, 64, traceLen, seed, &w.layers)
	if err != nil {
		return nil, err
	}
	w.dies = []*die{d}
	chunks := traceLen / w.batch
	a := rand.New(rand.NewSource(seed)).Intn(chunks)
	w.monitors = []*servedMonitor{
		{name: "A", die: d, reuse: -1, route: "estimate", binary: true, offset: a},
		{name: "B", die: d, reuse: 0, route: "govern", binary: true, offset: (a + chunks/2) % chunks,
			govern: &wire.GovernConfig{Policy: "pi", CeilingC: coreCeiling(d)}},
	}
	w.conns = [][]int{{0, 1}}
	if err := w.encode(); err != nil {
		return nil, err
	}
	w.genTime = time.Since(t0)
	return w, nil
}

// coreCeiling is the median over the held-out trace of the hottest core
// cell: a governor ceiling inside the trace's core-temperature range, so
// caps engage on part of the traffic.
func coreCeiling(d *die) float64 {
	raster := d.fp.Rasterize(floorplan.Grid{W: d.spec.GridW, H: d.spec.GridH})
	cores := governor.CoreCells(d.fp, raster)
	peaks := make([]float64, d.trace.T())
	for i := range peaks {
		row := d.trace.Map(i)
		peak := math.Inf(-1)
		for _, cells := range cores {
			for _, c := range cells {
				peak = math.Max(peak, row[c])
			}
		}
		peaks[i] = peak
	}
	return median(peaks)
}

// newFleetJSON builds the paged JSON fleet: 24 t1 and 24 athlon monitors at
// 16×14, one training per die type, siblings reusing the first monitor's
// greedy layout, one in four tracking. Two connections each own half the
// fleet and pick within it by zipf(1.1); every request is a JSON body of
// 128 snapshots. The daemon keeps 16 monitors resident.
func newFleetJSON(seed int64) (*servingWorkload, error) {
	w := &servingWorkload{name: "fleet-json", batch: 128, warmupOps: 256, durable: true, zipfS: 1.1,
		flags: []string{"-max-monitors", "16", "-log-sample", "100"}}
	t0 := time.Now()
	const perType, traceLen = 24, 8192
	var dies []*die
	for _, fp := range []string{"t1", "athlon"} {
		d, err := buildDie(trainSpec{Floorplan: fp, GridW: 16, GridH: 14, Snapshots: 256, Seed: trainingSeed, KMax: 12},
			8, 12, 32, traceLen, seed, &w.layers)
		if err != nil {
			return nil, err
		}
		dies = append(dies, d)
	}
	w.dies = dies
	chunks := traceLen / w.batch
	offsets := rand.New(rand.NewSource(seed))
	w.conns = make([][]int, 2)
	for j := 0; j < perType; j++ {
		for t, d := range dies {
			idx := len(w.monitors)
			m := &servedMonitor{name: fmt.Sprintf("%s-%02d", d.spec.Floorplan, j), die: d,
				reuse: -1, route: "estimate", offset: offsets.Intn(chunks), tracking: j%4 == 3}
			if j > 0 {
				m.reuse = t // the j == 0 monitor of this die type
			}
			if m.tracking {
				m.route = "track"
			}
			w.monitors = append(w.monitors, m)
			c := j / (perType / 2)
			w.conns[c] = append(w.conns[c], idx)
		}
	}
	if err := w.encode(); err != nil {
		return nil, err
	}
	w.genTime = time.Since(t0)
	return w, nil
}

// encode renders every request body the workload will send, including
// each die's verification request.
func (w *servingWorkload) encode() error {
	w.bodies = map[bodyKey][][]byte{}
	w.firstBody = map[int][]byte{}
	w.verifyBody = map[*die][]byte{}
	for i, m := range w.monitors {
		key := bodyKey{m.die, m.format()}
		if _, ok := w.bodies[key]; !ok {
			n := len(m.die.readings) / w.batch
			bodies := make([][]byte, n)
			for c := range bodies {
				rows := chunk(m.die.readings, c*w.batch, w.batch)
				var err error
				switch key.format {
				case "json":
					bodies[c] = jsonReadingsBody(rows, false)
				case "bin-govern":
					bodies[c], err = binaryGovernBody(rows, nil)
				default:
					bodies[c], err = binaryEstimateBody(rows, false)
				}
				if err != nil {
					return err
				}
			}
			w.bodies[key] = bodies
		}
		if m.govern != nil {
			body, err := binaryGovernBody(chunk(m.die.readings, m.offset*w.batch, w.batch), m.govern)
			if err != nil {
				return err
			}
			w.firstBody[i] = body
		}
		if _, ok := w.verifyBody[m.die]; !ok {
			if m.binary {
				body, err := binaryEstimateBody(m.die.verify.readings, true)
				if err != nil {
					return err
				}
				w.verifyBody[m.die] = body
			} else {
				w.verifyBody[m.die] = jsonReadingsBody(m.die.verify.readings, true)
			}
		}
	}
	return nil
}

// verifyResult aggregates the verification sets of one setup.
type verifyResult struct {
	monitors int
	maxDiff  float64
	sqErr    float64
	cells    int
}

func (v verifyResult) mse() float64 { return v.sqErr / float64(v.cells) }

// setupResult is one daemon brought up to serving state.
type setupResult struct {
	d        *daemon
	storeDir string // "" unless the daemon is durable
	wall     time.Duration
	steal    float64 // share of runnable vCPU time stolen during setup
	verify   verifyResult
	creates  []createCall
}

// createCall records one create the daemon served, for the in-process
// replay of its layer calls.
type createCall struct {
	spec    trainSpec
	k       int
	sensors []int // as the daemon placed or was given them
	id      string
}

// createResponse is the daemon's create reply.
type createResponse struct {
	ID      string `json:"id"`
	N       int    `json:"n"`
	Sensors []int  `json:"sensors"`
}

// setup execs a daemon, creates every monitor and sends each its first
// request — the verification set — and returns once all have answered.
// The returned time runs from exec to the last answer.
func (w *servingWorkload) setup(o *options, client *http.Client, tag string) (*setupResult, error) {
	flags := append([]string(nil), w.flags...)
	storeDir := ""
	if w.durable {
		storeDir = filepath.Join(o.runDir, tag+"-store")
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return nil, err
		}
		flags = append(flags, "-store-dir", storeDir)
	}
	sw, err := startWatch()
	if err != nil {
		return nil, err
	}
	d, err := startDaemonRetry(o, tag, flags)
	if err != nil {
		return nil, err
	}
	res := &setupResult{d: d, storeDir: storeDir}
	if err := d.waitHealthy(client, 30*time.Second); err != nil {
		return res, err
	}
	var buf bytes.Buffer
	for _, m := range w.monitors {
		var given []int
		if m.reuse >= 0 {
			given = w.monitors[m.reuse].sensors
		}
		body, err := m.die.spec.createBody(m.die.k, m.die.m, given, m.tracking)
		if err != nil {
			return res, err
		}
		if _, err := do(client, http.MethodPost, d.base+"/v1/monitors", "application/json", body, "", &buf); err != nil {
			return res, fmt.Errorf("create %s: %w", m.name, err)
		}
		var cr createResponse
		if err := json.Unmarshal(buf.Bytes(), &cr); err != nil {
			return res, fmt.Errorf("create %s: %w", m.name, err)
		}
		if !slices.Equal(cr.Sensors, m.die.sensors) {
			return res, fmt.Errorf("create %s: daemon sensors %v differ from the reference placement %v", m.name, cr.Sensors, m.die.sensors)
		}
		m.id, m.sensors, m.cursor, m.configSent = cr.ID, cr.Sensors, m.offset, false
		res.creates = append(res.creates, createCall{spec: m.die.spec, k: m.die.k, sensors: cr.Sensors, id: cr.ID})
	}
	for _, m := range w.monitors {
		if _, err := do(client, http.MethodPost, d.base+"/v1/monitors/"+m.id+"/estimate", m.ctype(), w.verifyBody[m.die], "", &buf); err != nil {
			return res, fmt.Errorf("verification request on %s: %w", m.name, err)
		}
		maps, err := decodeMaps(buf.Bytes(), m.binary)
		if err != nil {
			return res, fmt.Errorf("verification response of %s: %w", m.name, err)
		}
		maxDiff, sq, cells, err := m.die.verify.check(maps)
		if err != nil {
			return res, fmt.Errorf("%s: %w", m.name, err)
		}
		res.verify.monitors++
		res.verify.maxDiff = math.Max(res.verify.maxDiff, maxDiff)
		res.verify.sqErr += sq
		res.verify.cells += cells
	}
	if res.wall, res.steal, err = sw.read(); err != nil {
		return res, err
	}
	if res.verify.maxDiff > verifyTol {
		return res, fmt.Errorf("verification: daemon maps differ from the in-process reference by %.3g °C (tolerance %g)", res.verify.maxDiff, verifyTol)
	}
	return res, nil
}

// startDaemonRetry starts the daemon, retrying on a fresh port if it dies
// at start-up (the probed port was taken in between).
func startDaemonRetry(o *options, tag string, flags []string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := startDaemon(o.emapsd, filepath.Join(o.runDir, fmt.Sprintf("%s-emapsd-%d.log", tag, attempt)), o.daemonProcs, flags)
		if err != nil {
			return nil, err
		}
		select {
		case <-d.exited:
			lastErr = fmt.Errorf("emapsd exited at start-up: %v", d.exitErr())
			d.stop()
			continue
		case <-time.After(20 * time.Millisecond):
		}
		return d, nil
	}
	return nil, lastErr
}

// jsonResponse is the estimate/track JSON reply.
type jsonResponse struct {
	Quality string         `json:"quality"`
	Results []wire.Summary `json:"results"`
}

// decodeMaps extracts the full maps of an include_maps estimate response.
func decodeMaps(data []byte, binary bool) ([][]float64, error) {
	var sums []wire.Summary
	if binary {
		var err error
		if sums, _, err = wire.DecodeEstimateResponse(data); err != nil {
			return nil, err
		}
	} else {
		var r jsonResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, err
		}
		sums = r.Results
	}
	maps := make([][]float64, len(sums))
	for i, s := range sums {
		maps[i] = s.Map
	}
	return maps, nil
}

// phaseStats is what the harness observed in one phase: per connection
// while it runs, merged across connections at its end.
type phaseStats struct {
	ops       int // attempted
	failed    int
	lat       []float64       // ms, successful ops
	ends      []time.Duration // completion offsets from the phase start
	drifting  int             // responses stamped drifting
	degraded  int             // responses stamped degraded
	firstErr  error
	elapsed   time.Duration
	spans     []span
	solveMS   float64 // solve time of GEMM requests: Server-Timing (traced serving runs) or the solve stage (provision)
	solveFlop float64 // their flops, 2·batch·M·N each
	host      []hostSample
}

// span is one traced request as the harness saw it, joined with the
// daemon's Server-Timing stages by request id.
type span struct {
	ID      string             `json:"id"`
	Conn    int                `json:"conn"`
	Monitor string             `json:"monitor"`
	Route   string             `json:"route"`
	StartUS int64              `json:"start_us"`
	DurUS   int64              `json:"dur_us"`
	Stages  map[string]float64 `json:"stages_ms,omitempty"`
}

func (p *phaseStats) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// merge folds other connections' stats into p.
func (p *phaseStats) merge(o *phaseStats) {
	p.ops += o.ops
	p.failed += o.failed
	p.lat = append(p.lat, o.lat...)
	p.ends = append(p.ends, o.ends...)
	p.drifting += o.drifting
	p.degraded += o.degraded
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
	if o.elapsed > p.elapsed {
		p.elapsed = o.elapsed
	}
	p.spans = append(p.spans, o.spans...)
	p.solveMS += o.solveMS
	p.solveFlop += o.solveFlop
}

// windowRates returns completions per second in each whole one-second
// window of the phase.
func (p *phaseStats) windowRates() []float64 {
	n := int(p.elapsed / time.Second)
	if n < 1 {
		return nil
	}
	counts := make([]float64, n)
	for _, e := range p.ends {
		if i := int(e / time.Second); i < n {
			counts[i]++
		}
	}
	return counts
}

// pickers returns one deterministic monitor picker per connection.
func (w *servingWorkload) pickers(seed int64) []func() int {
	out := make([]func() int, len(w.conns))
	for c, owned := range w.conns {
		owned := owned
		if w.zipfS > 1 {
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			z := rand.NewZipf(rng, w.zipfS, 1, uint64(len(owned)-1))
			out[c] = func() int { return owned[z.Uint64()] }
			continue
		}
		i := -1
		out[c] = func() int { i = (i + 1) % len(owned); return owned[i] }
	}
	return out
}

// runPhase drives every connection in a closed loop: each sends its next
// request only after the previous one completed. A connection stops after
// opsPerConn requests when opsPerConn > 0, otherwise at until.
func (w *servingWorkload) runPhase(base string, clients []*http.Client, pick []func() int, opsPerConn int, until time.Time, traced bool, tag string) *phaseStats {
	start := time.Now()
	host := sampleHost(start)
	stats := make([]*phaseStats, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		stats[c] = &phaseStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.drive(base, c, clients[c], pick[c], opsPerConn, until, traced, tag, start, stats[c])
		}(c)
	}
	wg.Wait()
	total := &phaseStats{host: host.stop()}
	for _, s := range stats {
		total.merge(s)
	}
	return total
}

// hostSampler reads /proc/stat every 100 ms for the length of a phase, so
// steal can be attributed to each one-second window.
type hostSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []hostSample
}

type hostSample struct {
	at  time.Duration // since the phase start
	cpu hostCPU
}

func sampleHost(start time.Time) *hostSampler {
	h := &hostSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if c, err := readHostCPU(); err == nil {
				h.samples = append(h.samples, hostSample{time.Since(start), c})
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the samples once the sampler exited.
func (h *hostSampler) stop() []hostSample {
	close(h.quit)
	<-h.done
	return h.samples
}

// windowSteal returns, for each one-second window of the phase (the last
// one possibly partial), the share of runnable vCPU time the hypervisor
// stole, between the host samples nearest the window's edges.
func (p *phaseStats) windowSteal() []float64 {
	if len(p.host) == 0 {
		return make([]float64, int(p.elapsed/time.Second)+1)
	}
	at := func(t time.Duration) hostCPU {
		best := p.host[0]
		for _, s := range p.host {
			if (s.at - t).Abs() < (best.at - t).Abs() {
				best = s
			}
		}
		return best.cpu
	}
	out := make([]float64, int(p.elapsed/time.Second)+1)
	for i := range out {
		end := min(time.Duration(i+1)*time.Second, p.elapsed)
		out[i] = stealShare(at(time.Duration(i)*time.Second), at(end))
	}
	return out
}

// stealFree scales each op latency by the share of runnable vCPU time the
// hypervisor did not steal in the op's window.
func (p *phaseStats) stealFree() []float64 {
	f := p.windowSteal()
	out := make([]float64, len(p.lat))
	for i, l := range p.lat {
		out[i] = l * (1 - f[int(p.ends[i]/time.Second)])
	}
	return out
}

func (w *servingWorkload) drive(base string, conn int, client *http.Client, pick func() int, opsPerConn int, until time.Time, traced bool, tag string, start time.Time, st *phaseStats) {
	var buf bytes.Buffer
	for n := 0; ; n++ {
		if opsPerConn > 0 {
			if n >= opsPerConn {
				break
			}
		} else if !time.Now().Before(until) {
			break
		}
		mi := pick()
		m := w.monitors[mi]
		body := w.bodies[bodyKey{m.die, m.format()}][m.cursor%(len(m.die.readings)/w.batch)]
		if m.govern != nil && !m.configSent {
			body = w.firstBody[mi]
			m.configSent = true
		}
		m.cursor++
		reqID := ""
		if traced {
			reqID = fmt.Sprintf("%s-%d-%d", tag, conn, n)
		}
		st.ops++
		t0 := time.Now()
		resp, err := do(client, http.MethodPost, base+"/v1/monitors/"+m.id+"/"+m.route, m.ctype(), body, reqID, &buf)
		lat := time.Since(t0)
		end := time.Since(start)
		if err != nil {
			st.fail(fmt.Errorf("%s %s: %w", m.name, m.route, err))
			continue
		}
		q, err := w.checkResponse(m, buf.Bytes())
		if err != nil {
			st.fail(fmt.Errorf("%s %s: %w", m.name, m.route, err))
			continue
		}
		switch q {
		case wire.QualityDrifting:
			st.drifting++
		case wire.QualityDegraded:
			st.degraded++
		}
		st.lat = append(st.lat, float64(lat)/float64(time.Millisecond))
		st.ends = append(st.ends, end)
		st.elapsed = end
		if traced {
			sp := span{ID: reqID, Conn: conn, Monitor: m.name, Route: m.route,
				StartUS: (end - lat).Microseconds(), DurUS: lat.Microseconds(), Stages: map[string]float64{}}
			for _, t := range wire.ParseServerTiming(resp.Header.Get(wire.HeaderServerTiming)) {
				sp.Stages[t.Name] = t.DurMS
			}
			if m.route != "track" {
				st.solveMS += sp.Stages["solve"]
				st.solveFlop += 2 * float64(w.batch*m.die.m*m.die.n)
			}
			st.spans = append(st.spans, sp)
		}
	}
}

// checkResponse decodes one traffic response and checks its shape: one
// result per snapshot, finite temperatures in order, in-range cells and
// governor levels.
func (w *servingWorkload) checkResponse(m *servedMonitor, data []byte) (wire.Quality, error) {
	n := m.die.n
	if m.route == "govern" {
		resp, err := wire.DecodeGovernResponse(data)
		if err != nil {
			return 0, err
		}
		if len(resp.Decisions) != w.batch {
			return 0, fmt.Errorf("%d decisions for %d snapshots", len(resp.Decisions), w.batch)
		}
		for _, d := range resp.Decisions {
			if err := checkSummary(d.MinC, d.MeanC, d.MaxC, d.MaxCell, n); err != nil {
				return 0, err
			}
			if len(d.Levels) != resp.Cores {
				return 0, fmt.Errorf("%d levels for %d cores", len(d.Levels), resp.Cores)
			}
			for _, l := range d.Levels {
				if l < 0 || l >= len(resp.Ladder) {
					return 0, fmt.Errorf("level %d outside a %d-step ladder", l, len(resp.Ladder))
				}
			}
		}
		return resp.Quality, nil
	}
	var sums []wire.Summary
	var q wire.Quality
	if m.binary {
		var err error
		if sums, q, err = wire.DecodeEstimateResponse(data); err != nil {
			return 0, err
		}
	} else {
		var r jsonResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return 0, err
		}
		sums = r.Results
		switch r.Quality {
		case "ok":
			q = wire.QualityOK
		case "drifting":
			q = wire.QualityDrifting
		case "degraded":
			q = wire.QualityDegraded
		default:
			return 0, fmt.Errorf("unknown quality %q", r.Quality)
		}
	}
	if len(sums) != w.batch {
		return 0, fmt.Errorf("%d results for %d snapshots", len(sums), w.batch)
	}
	for _, s := range sums {
		if err := checkSummary(s.MinC, s.MeanC, s.MaxC, s.MaxCell, n); err != nil {
			return 0, err
		}
	}
	return q, nil
}

func checkSummary(lo, mean, hi float64, maxCell, n int) error {
	for _, v := range []float64{lo, mean, hi} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite summary %v", v)
		}
	}
	// The mean accumulates in floating point, so allow it a rounding
	// margin outside [min, max].
	if lo > hi || mean < lo-1e-9 || mean > hi+1e-9 {
		return fmt.Errorf("summary out of order: min %v mean %v max %v", lo, mean, hi)
	}
	if maxCell < 0 || maxCell >= n {
		return fmt.Errorf("max_cell %d outside %d cells", maxCell, n)
	}
	return nil
}

// driftGauges counts monitors by their current drift verdict.
func driftGauges(snap promSnapshot) (drifting, degraded int) {
	for k, v := range snap {
		if strings.HasPrefix(k, "emapsd_drift_state{") {
			switch v {
			case 1:
				drifting++
			case 2:
				degraded++
			}
		}
	}
	return drifting, degraded
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
