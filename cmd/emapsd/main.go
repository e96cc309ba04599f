// Command emapsd is the monitoring daemon: it multiplexes many independent
// thermal monitors — different floorplans, grids, subspace dimensions and
// sensor sets — behind one HTTP request loop, serving batched snapshot
// reconstruction concurrently.
//
// Each monitor shares one precomputed reconstruction operator across all
// requests, and estimate, track and govern each run one code path; batches
// fan out over a worker pool, so independent clients and independent
// monitors proceed in parallel. Trained models are cached by
// training configuration, so two monitors over the same ensemble (say, a
// K=8/M=16 layout and a K=4/M=8 fallback) pay for simulation and training
// once.
//
//	emapsd -addr :8760
//
//	POST /v1/monitors                  create a monitor (trains on demand)
//	GET  /v1/monitors                  list monitors and their counters
//	GET  /v1/monitors/{id}             one monitor's identity, lineage and
//	                                   live drift verdict
//	DELETE /v1/monitors/{id}           retire a monitor
//	POST /v1/monitors/{id}/estimate    batched reconstruction — one GEMM
//	                                   against the precomputed operator
//	POST /v1/monitors/{id}/track       batched Kalman-smoothed tracking
//	POST /v1/monitors/{id}/govern      estimate, then per-core DVFS caps
//	GET  /healthz                      liveness (also /v1/healthz)
//	GET  /metrics                      Prometheus text exposition: request
//	                                   counts and latency histograms per
//	                                   route, model-cache hit/miss, store
//	                                   traffic, snapshot totals (also
//	                                   /v1/metrics)
//	GET  /v1/stats                     request/snapshot totals
//
// Every API route lives under /v1/ only; /healthz and /metrics also answer
// unversioned, for probes and scrapers. Every failure is the uniform
// envelope {"error":{"code":"...","message":"..."}} — codes are stable
// slugs, messages are free-form detail.
//
// With -store-dir the daemon is durable: every trained model and every
// created monitor is persisted (atomic write + rename, see internal/store),
// a restart warm-starts all monitors with zero retraining and bit-identical
// estimates, and a full model cache evicts its least-recently-used model to
// disk instead of refusing the request with a 429. Requests are logged as
// JSON lines, and SIGINT/SIGTERM drain in-flight batches before exit.
//
// Monitors are created on "t1", "athlon", a registry "manycore-<cores>c"
// die, or a fully parametric {"floorplan":"manycore","cores":...,"caches":...,
// "mesh_w":...,"mesh_h":...} layout; the training mix is selected with
// "workloads" (registry scenario names) and/or an inline declarative
// "workload_spec" JSON document.
//
// Degenerate requests — M < K, duplicate or out-of-range sensors, NaN or Inf
// readings, wrong-length vectors, unknown workload names, malformed or
// out-of-schema workload specs, impossible many-core meshes — are rejected
// with 400s; they never panic the daemon or poison other monitors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/store"
	"repro/internal/track"
	"repro/internal/wire"
)

// defaultLoadCoupling is the core-utilization correlation every training
// ensemble is generated with — throughput workloads like the T1's sit near
// it (see SimOptions.LoadCoupling). Persisted in each record's metadata as
// part of its training configuration.
const defaultLoadCoupling = 0.75

func main() {
	addr := flag.String("addr", ":8760", "listen address")
	maxSnap := flag.Int("max-batch", 4096, "largest accepted snapshot batch")
	maxModels := flag.Int("max-models", 32, "largest number of cached trained models")
	maxMonitors := flag.Int("max-monitors", 0, "largest number of resident (paged-in) monitors; 0 = unlimited")
	storeDir := flag.String("store-dir", "", "trained-monitor persistence directory (empty = in-memory only)")
	shard := flag.String("shard", "", "serve shard i of n replicas over a shared store-dir, as i/n (empty = unsharded)")
	lockStale := flag.Duration("lock-stale", time.Minute, "age past which another replica's lockfile is presumed dead and stolen")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown deadline for in-flight requests")
	adaptAfter := flag.Int("adapt-after", 64, "out-of-distribution snapshots absorbed before the shadow basis hot-swaps in (0 = never adapt)")
	logSample := flag.Int("log-sample", 1, "log 1 in N request lines at high QPS (errors always logged; 1 = every request)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this loopback-only address, e.g. 127.0.0.1:8790 (empty = disabled)")
	printRoutes := flag.Bool("print-routes", false, "print the /v1 route table and exit (CI docs gate)")
	flag.Parse()

	if *printRoutes {
		for _, rt := range routeTable {
			fmt.Printf("%s %s\n", rt.method, rt.path)
		}
		return
	}

	// Buffered structured logs: one syscall per flush interval instead of one
	// per request line (see logbuf.go). Drained explicitly on every exit path.
	logSink := newLogBuffer(os.Stderr)
	defer logSink.Close()
	logger := slog.New(slog.NewJSONHandler(logSink, nil))
	srv := newServer(*maxSnap)
	srv.maxModels = *maxModels
	srv.maxMonitors = *maxMonitors
	srv.logger = logger
	srv.lockStale = *lockStale
	srv.adaptAfter = *adaptAfter
	if *logSample > 1 {
		srv.logEvery = int64(*logSample)
	}
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr, logger); err != nil {
			logger.Error("pprof", "err", err)
			logSink.Close()
			os.Exit(1)
		}
	}
	idx, n, err := parseShard(*shard)
	if err != nil {
		logger.Error("shard", "err", err)
		logSink.Close()
		os.Exit(1)
	}
	srv.shardIdx, srv.shardN = idx, n
	if n > 1 {
		if *storeDir == "" {
			logger.Error("shard", "err", fmt.Errorf("-shard requires -store-dir (replicas share the store)"))
			logSink.Close()
			os.Exit(1)
		}
		srv.ring = newShardRing(n)
	}
	if *storeDir != "" {
		if err := srv.openStore(*storeDir); err != nil {
			logger.Error("store", "err", err)
			logSink.Close()
			os.Exit(1)
		}
		loaded, skipped := srv.warmStart()
		logger.Info("warm start", "store_dir", *storeDir, "monitors", loaded, "skipped", skipped,
			"shard", srv.shardIdx, "of", srv.shardN)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "store_dir", *storeDir, "max_models", *maxModels)

	select {
	case err := <-serveErr:
		logger.Error("serve", "err", err)
		logSink.Close()
		os.Exit(1)
	case <-ctx.Done():
	}
	// Stop accepting, then drain: every accepted batch finishes (bounded by
	// the drain timeout) before the process exits.
	stop()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown", "err", err)
		logSink.Close()
		os.Exit(1)
	}
	logger.Info("drained")
}

// trainKey identifies one trained model in the cache. Workload is the
// canonical workload identity: the comma-joined scenario names plus, for an
// inline spec, its canonical JSON ("" = the default four-preset mix).
// Cores/Caches/MeshW/MeshH pin parametric many-core requests whose
// floorplan name alone does not determine the layout.
type trainKey struct {
	Floorplan string
	Cores     int
	Caches    int
	MeshW     int
	MeshH     int
	W, H      int
	Snapshots int
	Seed      int64
	KMax      int
	Workload  string
}

// modelEntry is a lazily trained model; once.Do gates training so concurrent
// creates for the same configuration train exactly once. fp is the resolved
// floorplan, persisted with every record. ready flips once the entry holds a
// servable model (trained or store-loaded), and lastUse drives
// least-recently-used eviction when the cache is full.
type modelEntry struct {
	once    sync.Once
	ready   atomic.Bool
	lastUse atomic.Int64 // unix nanos of the last cache hit
	model   *core.Model
	ds      *dataset.Dataset // training ensemble for drift calibration; nil for store-loaded entries
	fp      *floorplan.Floorplan
	err     error
}

// residentState is the paged part of a monitor: everything rebuildable
// from its record on disk. Requests grab it with one atomic load; eviction
// stores nil and the next touch pages it back in. In-flight requests keep
// serving on the pointer they already hold, so eviction never races a
// batch.
type residentState struct {
	mon *core.Monitor
	kf  *track.Kalman // nil unless tracking was requested

	// The serving basis and per-cell energy, kept so adaptation and
	// persistence can rebuild records without reaching back to the model
	// cache (an adapted generation's basis is not the cached model's).
	basis  *basis.Basis
	energy []float64

	// drift is the detector + shadow-basis state (see drift.go); nil for
	// uncalibrated monitors (no training ensemble in memory at create and
	// no calibration in the store record), which always serve quality "ok".
	drift *driftState

	// Lineage: generation 0 is the freshly created monitor; every
	// adaptation or sensor exclusion bumps it. parentKey is the ancestor's
	// train-key hash, persisted so adapted records stay traceable.
	generation int
	parentKey  string

	// Sensor-fault tolerance: origSensors is the client-facing sensor list
	// (nil while no sensor has been excluded); keep holds the positions of
	// the surviving sensors within a client reading vector of length
	// clientM (nil = identity).
	origSensors []int
	keep        []int
	clientM     int
}

// monitorEntry is one monitor behind the request loop — possibly paged out.
// desc (from the store index) is everything list/routing needs without
// touching the record; res is the paged serving state (nil while paged
// out); the meta fields are the creation request's training configuration,
// which persisting and governing need, filled at create or first page-in
// (metaOK) and stable afterwards.
type monitorEntry struct {
	id   string
	desc store.IndexEntry

	res     atomic.Pointer[residentState]
	lastUse atomic.Int64 // unix nanos of the last touch, drives monitor LRU

	mu        sync.Mutex // guards page-in and the meta fields below
	metaOK    bool
	key       trainKey
	fp        *floorplan.Floorplan
	rho       float64
	workloads []string
	specJSON  json.RawMessage

	snapshots atomic.Int64

	// gov is the monitor's closed-loop governor (POST …/govern), installed
	// by the first request that carries a config. Control state survives
	// resident hot-swaps — a drift adaptation replaces the estimator, not
	// the cap schedule the plant is already running under.
	gov atomic.Pointer[governorState]
}

// mapsPool recycles per-request output maps (batch × N floats) for every
// monitor and route that writes them (estimate, govern, track): the serving
// hot path must not allocate a fresh ~60 KB of maps per request at tens of
// thousands of snapshots per second. One server-wide pool holds about as
// many batches as requests run at once, where a pool per monitor would keep
// a batch for every monitor served until GC clears it, resident or paged
// out.
var mapsPool = sync.Pool{New: func() any { return new([][]float64) }}

// getMaps returns a pooled batch of n map buffers of length cells. A pooled
// row is re-sliced when its capacity suffices and replaced when it does
// not, so monitors of different N share the pool. Hand the batch back with
// putMaps once the response is encoded.
func getMaps(n, cells int) *[][]float64 {
	buf := mapsPool.Get().(*[][]float64)
	maps := (*buf)[:cap(*buf)]
	if len(maps) < n {
		maps = append(maps, make([][]float64, n-len(maps))...)
	}
	maps = maps[:n]
	for i, row := range maps {
		if cap(row) < cells {
			row = make([]float64, cells)
		}
		maps[i] = row[:cells]
	}
	*buf = maps
	return buf
}

func putMaps(buf *[][]float64) { mapsPool.Put(buf) }

type server struct {
	maxBatch    int
	maxModels   int // training-config cache cap; keys are client-controlled
	maxMonitors int // resident-monitor cap (0 = unlimited); excess pages out LRU-first
	storeDir    string
	logger      *slog.Logger
	metrics     *metricsSet

	// traces is the flight recorder: the last 256 finished request traces
	// plus the 32 slowest, served at GET /v1/debug/requests. logEvery
	// samples request log lines (1 in N; errors always logged); noTrace
	// strips per-request tracing entirely — it exists for the instrumented
	// vs. stripped benchmark arm, not for production use.
	traces   *obs.Ring
	logEvery int64
	logTick  atomic.Int64
	noTrace  bool

	// Sharding: this replica is shard shardIdx of shardN over a shared
	// store directory; ring maps monitor IDs to owners. shardN < 2 means
	// unsharded.
	shardIdx  int
	shardN    int
	ring      *shardRing
	lockStale time.Duration // age past which another replica's lockfile is stolen

	// adaptAfter is how many out-of-distribution snapshots a drifting
	// monitor absorbs into its shadow basis before hot-swapping the adapted
	// generation in (0 = never adapt).
	adaptAfter int

	mu        sync.Mutex
	models    map[trainKey]*modelEntry
	monitors  map[string]*monitorEntry    // every registered monitor, resident or not
	residents map[string]*monitorEntry    // the paged-in subset (LRU eviction scans this)
	index     map[string]store.IndexEntry // in-memory mirror of store.index
	nextID    int

	requests  atomic.Int64
	snapshots atomic.Int64

	// fileOpens counts store file opens (records, models, index) — the test
	// hook behind the O(resident + one index read) warm-boot acceptance
	// criterion.
	fileOpens atomic.Int64
}

func newServer(maxBatch int) *server {
	return &server{
		maxBatch:   maxBatch,
		maxModels:  32,
		shardN:     1,
		adaptAfter: 64,
		lockStale:  time.Minute,
		metrics:    newMetricsSet(),
		traces:     obs.NewRing(256, 32),
		logEvery:   1,
		models:     make(map[trainKey]*modelEntry),
		monitors:   make(map[string]*monitorEntry),
		residents:  make(map[string]*monitorEntry),
		index:      make(map[string]store.IndexEntry),
	}
}

// logf emits a structured warning (daemon-survivable problems: store
// failures, skipped records). No-op for logger-less servers (tests).
func (s *server) logf(msg string, args ...any) {
	if s.logger != nil {
		s.logger.Warn(msg, args...)
	}
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	var tr *obs.Trace
	if !s.noTrace {
		// Direct lookup: net/http stores request headers under canonical
		// keys, and the constant is canonical, so Get's canonicalization
		// pass would be pure overhead.
		var id string
		if v := r.Header[wire.HeaderRequestID]; len(v) > 0 {
			id = v[0]
		}
		if id == "" {
			id = obs.NewID()
		} else {
			// A client-supplied id opts the response into Server-Timing;
			// anonymous traffic still gets traced and ringed, just without
			// the per-response header.
			sw.wantTiming = true
			if len(id) > 128 {
				// Bound attacker-controlled header bytes before they reach
				// logs, traces and response headers.
				id = id[:128]
			}
		}
		// The trace lives inside the statusWriter: per-request observability
		// state rides the allocation the response path pays anyway.
		tr = &sw.trace
		tr.Reset(id, start)
		sw.tr = tr
		// Echo the effective id up front so even error responses carry it.
		// Direct assignment — the constant is already canonical and Set's
		// canonicalization shows up in the hot-path profile.
		sw.idHolder[0] = id
		w.Header()[wire.HeaderRequestID] = sw.idHolder[:]
	}
	route := s.dispatch(sw, r)
	dur := time.Since(start)
	s.metrics.observe(route, sw.status, dur)
	if tr != nil {
		tr.Route = route
		tr.Finish(sw.status, sw.bytes, dur)
		s.metrics.observeTrace(tr)
		s.traces.Record(tr)
	}
	if s.logger != nil && s.shouldLog(sw.status) {
		rid := ""
		if tr != nil {
			rid = tr.ID
		}
		s.logger.Info("request",
			"method", r.Method, "path", r.URL.Path, "route", route,
			"status", sw.status, "dur_ms", float64(dur.Microseconds())/1000,
			"bytes", sw.bytes, "request_id", rid)
	}
}

// shouldLog applies -log-sample: 1 in logEvery request lines, with errors
// (4xx/5xx) always logged so sampling never hides failures.
func (s *server) shouldLog(status int) bool {
	if s.logEvery <= 1 || status >= 400 {
		return true
	}
	return s.logTick.Add(1)%s.logEvery == 1
}

// traceOf recovers the request trace from the wrapped response writer.
// Returns nil — and every trace method no-ops — when the writer is not the
// daemon's statusWriter (direct dispatch in tests) or tracing is stripped.
func traceOf(w http.ResponseWriter) *obs.Trace {
	if sw, ok := w.(*statusWriter); ok {
		return sw.tr
	}
	return nil
}

// dispatch routes the request and returns the route label used by metrics
// and the request log ({id} collapsed so per-monitor paths aggregate).
//
// The API lives under /v1/ only. /healthz and /metrics are infrastructure
// endpoints that probes and scrapers reach unversioned, so they answer on
// both spellings.
func (s *server) dispatch(w http.ResponseWriter, r *http.Request) string {
	path := r.URL.Path
	switch path {
	case "/healthz", "/v1/healthz":
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return "healthz"
	case "/metrics", "/v1/metrics":
		if r.Method == http.MethodGet {
			s.handleMetrics(w)
			return "metrics"
		}
	}
	rest, versioned := strings.CutPrefix(path, "/v1")
	switch {
	case !versioned:
		// No API route answers unversioned.
	case rest == "/stats" && r.Method == http.MethodGet:
		s.handleStats(w)
		return "stats"
	case rest == "/shard" && r.Method == http.MethodGet:
		s.handleShard(w)
		return "shard"
	case rest == "/monitors" && r.Method == http.MethodPost:
		s.handleCreate(w, r)
		return "create"
	case rest == "/monitors" && r.Method == http.MethodGet:
		s.handleList(w)
		return "list"
	case rest == "/debug/requests" && r.Method == http.MethodGet:
		s.handleDebugRequests(w, r)
		return "debug"
	case strings.HasPrefix(rest, "/monitors/"):
		return s.handleMonitor(w, r, strings.TrimPrefix(rest, "/monitors/"))
	}
	httpError(w, http.StatusNotFound, "not_found", "no such route")
	return "notfound"
}

func (s *server) handleMetrics(w http.ResponseWriter) {
	s.mu.Lock()
	g := gauges{models: len(s.models), monitors: len(s.monitors)}
	entries := make([]*monitorEntry, 0, len(s.monitors))
	for _, e := range s.monitors {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	g.requests = s.requests.Load()
	g.snapshots = s.snapshots.Load()
	g.fileOpens = s.fileOpens.Load()
	// Drift verdicts are read outside s.mu (each detector has its own lock);
	// paged-out or uncalibrated monitors have no verdict to report.
	for _, e := range entries {
		if rs := e.res.Load(); rs != nil && rs.drift != nil {
			g.driftStates = append(g.driftStates, driftGauge{id: e.id, state: int(rs.drift.det.State())})
		}
		if gov := e.gov.Load(); gov != nil {
			snaps, duty := gov.stats()
			g.governors = append(g.governors, governGauge{id: e.id, snapshots: snaps, duty: duty})
		}
	}
	sort.Slice(g.driftStates, func(i, j int) bool { return g.driftStates[i].id < g.driftStates[j].id })
	sort.Slice(g.governors, func(i, j int) bool { return g.governors[i].id < g.governors[j].id })
	// Render to memory first so a slow scraper's connection never holds the
	// response open mid-snapshot (and the scrape stays one Write).
	var buf bytes.Buffer
	s.metrics.render(&buf, g)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// --- create ---

type createRequest struct {
	Floorplan string  `json:"floorplan"` // "t1" (default), "athlon", "manycore-<cores>c" or "manycore"
	Cores     int     `json:"cores"`     // "manycore" only: core count (mesh_w*mesh_h)
	Caches    int     `json:"caches"`    // "manycore" only: cache bank count
	MeshW     int     `json:"mesh_w"`    // "manycore" only: core-mesh columns
	MeshH     int     `json:"mesh_h"`    // "manycore" only: core-mesh rows
	GridW     int     `json:"grid_w"`    // default 16
	GridH     int     `json:"grid_h"`    // default 14
	Snapshots int     `json:"snapshots"` // training ensemble size, default 150
	Seed      int64   `json:"seed"`
	KMax      int     `json:"kmax"`     // default 12
	K         int     `json:"k"`        // subspace dimension, default min(8, KMax)
	M         int     `json:"m"`        // sensor budget, default K (ignored with explicit sensors)
	Strategy  string  `json:"strategy"` // greedy (default), energy, random, uniform, d-optimal
	Sensors   []int   `json:"sensors"`  // explicit sensor cells; overrides M/strategy
	Tracking  bool    `json:"tracking"` // also build a Kalman tracker
	Rho       float64 `json:"rho"`      // tracker AR(1) coefficient

	// Workloads are registry scenario names for the training ensemble
	// (default: web,compute,mixed,idle); WorkloadSpec is an inline
	// declarative spec run as an additional segment. Bad names or specs
	// are rejected with 400s.
	Workloads    []string        `json:"workloads"`
	WorkloadSpec json.RawMessage `json:"workload_spec"`
}

type createResponse struct {
	ID      string  `json:"id"`
	N       int     `json:"n"`
	K       int     `json:"k"`
	M       int     `json:"m"`
	Sensors []int   `json:"sensors"`
	Cond    float64 `json:"cond"`
}

func (cr *createRequest) defaults() {
	if cr.Floorplan == "" {
		cr.Floorplan = "t1"
	}
	if cr.GridW == 0 {
		cr.GridW = 16
	}
	if cr.GridH == 0 {
		cr.GridH = 14
	}
	if cr.Snapshots == 0 {
		cr.Snapshots = 150
	}
	if cr.KMax == 0 {
		cr.KMax = 12
	}
	if cr.K == 0 {
		cr.K = 8
		if cr.K > cr.KMax {
			cr.K = cr.KMax
		}
	}
	if cr.M == 0 {
		cr.M = cr.K
	}
}

// maxCreateMatrixBytes bounds the one dense matrix a create allocates in
// proportion to its shape, the snapshots × cells float64 training
// ensemble. It admits the paper's own scale (3360 cells and 2652
// snapshots: 71 MB) with room to spare; a larger shape is rejected before
// it reaches the model cache, because allocating it could exhaust memory,
// which is fatal to the whole process rather than an error.
const maxCreateMatrixBytes = 256 << 20

// maxCreateCells bounds a create's grid (90×91 fits). Greedy placement
// does Θ(cells²·K) work in O(cells·K) memory, and a grid's two banded
// thermal factors take 64·cells·(2·min(W,H)+4) bytes, about 96 MB at
// the largest admitted grid, so both stay within what one create may
// cost.
const maxCreateCells = 8192

// checkShape rejects an ensemble over maxCreateMatrixBytes and a grid over
// maxCreateCells. Grid sides below 1 pass through: the ensemble generator
// rejects them as a training error. Sizes are computed in float64 so no
// product overflows, on 32-bit platforms either.
func (cr *createRequest) checkShape() error {
	if cr.GridW < 1 || cr.GridH < 1 {
		return nil
	}
	cells := float64(cr.GridW) * float64(cr.GridH)
	if ensemble := 8 * float64(cr.Snapshots) * cells; ensemble > maxCreateMatrixBytes {
		return fmt.Errorf("%d snapshots of a %dx%d grid need a %.0f MiB ensemble (limit %d MiB)",
			cr.Snapshots, cr.GridW, cr.GridH, ensemble/(1<<20), maxCreateMatrixBytes>>20)
	}
	if cells > maxCreateCells {
		return fmt.Errorf("a %dx%d grid has %.0f cells (limit %d)", cr.GridW, cr.GridH, cells, maxCreateCells)
	}
	return nil
}

func (s *server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if !limitBody(w, r, maxCreateBody) {
		return
	}
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badBody(w, err, "bad_json", "bad JSON: %v")
		return
	}
	req.defaults()
	if err := req.checkShape(); err != nil {
		httpError(w, http.StatusBadRequest, "train_failed", "training configuration too large: %v", err)
		return
	}
	var fp *floorplan.Floorplan
	var err error
	if req.Floorplan == "manycore" {
		fp, err = floorplan.Manycore(req.Cores, req.Caches, floorplan.Grid{W: req.MeshW, H: req.MeshH})
	} else {
		fp, err = floorplan.Named(req.Floorplan)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_floorplan", "bad floorplan: %v", err)
		return
	}
	// Workload selection: registry names and/or one inline declarative
	// spec. nil specs = the default four-preset mix.
	specs, wlKey, err := resolveWorkloads(req.Workloads, req.WorkloadSpec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_workload", "bad workload: %v", err)
		return
	}
	key := trainKey{Floorplan: fp.Name,
		Cores: req.Cores, Caches: req.Caches, MeshW: req.MeshW, MeshH: req.MeshH,
		W: req.GridW, H: req.GridH,
		Snapshots: req.Snapshots, Seed: req.Seed, KMax: req.KMax,
		Workload: wlKey}
	entry, ok := s.modelFor(key)
	if !ok {
		httpError(w, http.StatusTooManyRequests, "cache_full",
			"model cache full (%d configurations); reuse an existing training configuration", s.maxModels)
		return
	}
	entry.once.Do(func() {
		entry.fp = fp
		// A model evicted to disk earlier (or trained by a previous life of
		// a durable daemon) reloads in milliseconds instead of retraining.
		loadFromDisk := func() bool {
			model, dfp, ok := s.loadModelRecord(key)
			if ok {
				entry.model, entry.fp = model, dfp
				entry.ready.Store(true)
				s.metrics.modelsLoaded.Add(1)
			}
			return ok
		}
		if loadFromDisk() {
			return
		}
		if s.shardN > 1 {
			// Single-flight across replicas: hold the training lockfile, or
			// wait for the replica that does and load its result. Either way
			// re-check the disk before simulating — the whole point is that
			// two replicas never generate the same ensemble.
			if release := s.trainLock(key); release != nil {
				defer release()
			}
			if loadFromDisk() {
				return
			}
		}
		entry.ds, entry.err = dataset.Generate(fp, dataset.GenConfig{
			Grid:      floorplan.Grid{W: key.W, H: key.H},
			Snapshots: key.Snapshots,
			Specs:     specs,
			Seed:      key.Seed,
			Power:     power.ConfigFor(fp, defaultLoadCoupling),
		})
		if entry.err == nil {
			entry.model, entry.err = core.Train(entry.ds, core.TrainOptions{KMax: key.KMax, Seed: key.Seed})
		}
		if entry.err != nil {
			// Evict so the next request with this key retries instead of
			// being served the cached failure forever.
			s.mu.Lock()
			if s.models[key] == entry {
				delete(s.models, key)
			}
			s.mu.Unlock()
			return
		}
		entry.ready.Store(true)
		s.metrics.modelsTrained.Add(1)
		// Persist at training time, not eviction time: eviction then never
		// races a slow disk write, and a crash between train and evict
		// still finds the model on disk after restart.
		s.persistModel(key, entry, req.Workloads, req.WorkloadSpec)
	})
	if entry.err != nil {
		httpError(w, http.StatusBadRequest, "train_failed", "training failed: %v", entry.err)
		return
	}
	sensors := req.Sensors
	if len(sensors) == 0 {
		alloc, err := place.Parse(req.Strategy, req.Seed)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad_strategy", "%v", err)
			return
		}
		sensors, err = entry.model.PlaceSensors(req.M, core.PlaceOptions{K: req.K, Allocator: alloc})
		if err != nil {
			httpError(w, http.StatusBadRequest, "placement_failed", "placement failed: %v", err)
			return
		}
	}
	mon, err := entry.model.NewMonitor(req.K, sensors)
	if err != nil {
		// M < K, duplicate or out-of-range sensors, rank deficiency.
		httpError(w, http.StatusBadRequest, "monitor_rejected", "monitor rejected: %v", err)
		return
	}
	var kf *track.Kalman
	if req.Tracking {
		kf, err = track.NewKalman(entry.model.Basis, req.K, sensors, track.Config{Rho: req.Rho})
		if err != nil {
			httpError(w, http.StatusBadRequest, "tracker_rejected", "tracker rejected: %v", err)
			return
		}
	}
	cond, err := mon.Cond()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "internal", "cond: %v", err)
		return
	}
	me := &monitorEntry{key: key, fp: entry.fp,
		rho: req.Rho, workloads: req.Workloads, specJSON: req.WorkloadSpec,
		metaOK: true}
	rs := &residentState{mon: mon, kf: kf, basis: entry.model.Basis, energy: entry.model.Energy}
	// Drift calibration needs the training ensemble in memory; a create
	// served from a store-loaded model skips it (the monitor serves
	// quality "ok" and reports drift_state "uncalibrated").
	if entry.ds != nil {
		maps := make([][]float64, entry.ds.T())
		for i := range maps {
			maps[i] = entry.ds.Map(i)
		}
		if cal, err := calibrateMonitor(mon, maps); err == nil {
			if dstate, err := newDriftState(cal, entry.model.Basis, entry.model.Energy, entry.ds.T()); err == nil {
				rs.drift = dstate
			} else {
				s.logf("drift calibration", "err", err)
			}
		} else {
			s.logf("drift calibration", "err", err)
		}
	}
	me.res.Store(rs)
	me.lastUse.Store(time.Now().UnixNano())
	s.mu.Lock()
	// Sharded replicas allocate from disjoint ID sets: each advances past
	// IDs the ring assigns elsewhere, so concurrent creates on different
	// replicas can never pick the same ID.
	for {
		s.nextID++
		id := fmt.Sprintf("mon-%d", s.nextID)
		if s.owns(id) {
			me.id = id
			break
		}
	}
	s.mu.Unlock()
	me.desc = store.IndexEntry{ID: me.id,
		TrainKey:  keyHash(key),
		Floorplan: key.Floorplan, K: mon.K(), M: len(mon.Sensors()),
		GridW: key.W, GridH: key.H, Tracking: kf != nil}
	if s.storeDir != "" {
		me.desc.File = me.id + monitorSuffix
	}
	// Persist before publishing: once the monitor is visible, a concurrent
	// DELETE must find the record on disk — persisting afterwards could
	// resurrect a just-deleted monitor at the next warm start. A durable
	// daemon acknowledges only a monitor whose record is written.
	if err := s.persistMonitor(me, rs); err != nil {
		httpError(w, http.StatusInternalServerError, "persist_failed",
			"monitor %s: writing its record: %v", me.id, err)
		return
	}
	s.mu.Lock()
	s.monitors[me.id] = me
	s.mu.Unlock()
	s.registerResident(me)
	writeJSON(w, http.StatusCreated, createResponse{
		ID: me.id, N: mon.N(), K: mon.K(), M: len(mon.Sensors()),
		Sensors: mon.Sensors(), Cond: cond,
	})
}

// modelFor returns the (possibly still untrained) cache entry for key. It
// reports false when the cache is at capacity, key is not present, and
// nothing can be evicted — training configurations are client-controlled,
// so the cache must not grow without bound. A durable daemon (-store-dir)
// evicts its least-recently-used trained model instead: the evicted state
// is already on disk (persisted at training time) and reloads on demand.
func (s *server) modelFor(key trainKey) (*modelEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, ok := s.models[key]
	if !ok {
		s.metrics.cacheMisses.Add(1)
		if len(s.models) >= s.maxModels && !s.evictLocked() {
			return nil, false
		}
		entry = &modelEntry{}
		s.models[key] = entry
	} else {
		s.metrics.cacheHits.Add(1)
	}
	entry.lastUse.Store(time.Now().UnixNano())
	return entry, true
}

// --- list / stats / delete ---

type monitorInfo struct {
	ID        string `json:"id"`
	Floorplan string `json:"floorplan"`
	GridW     int    `json:"grid_w"`
	GridH     int    `json:"grid_h"`
	K         int    `json:"k"`
	M         int    `json:"m"`
	Tracking  bool   `json:"tracking"`
	Snapshots int64  `json:"snapshots_served"`
}

func (s *server) handleList(w http.ResponseWriter) {
	s.mu.Lock()
	infos := make([]monitorInfo, 0, len(s.monitors))
	for _, e := range s.monitors {
		// Everything list reports comes from the index descriptor, so
		// listing a million-monitor store pages nothing in.
		infos = append(infos, monitorInfo{
			ID: e.id, Floorplan: e.desc.Floorplan, GridW: e.desc.GridW, GridH: e.desc.GridH,
			K: e.desc.K, M: e.desc.M, Tracking: e.desc.Tracking,
			Snapshots: e.snapshots.Load(),
		})
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"monitors": infos})
}

func (s *server) handleStats(w http.ResponseWriter) {
	s.mu.Lock()
	monitors := len(s.monitors)
	models := len(s.models)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"requests":  s.requests.Load(),
		"snapshots": s.snapshots.Load(),
		"monitors":  monitors,
		"models":    models,
	})
}

// --- per-monitor routes ---

func (s *server) handleMonitor(w http.ResponseWriter, r *http.Request, rest string) string {
	id, action, _ := strings.Cut(rest, "/")
	tr := traceOf(w)
	if tr != nil {
		tr.Monitor = id
	}
	// The shard_route span only exists on sharded replicas: unsharded
	// routing is a map lookup, and stamping a ~0 span on every request
	// would buy two clock reads of pure overhead.
	sharded := s.shardN > 1
	if !s.owns(id) {
		tr.Mark(obs.StageShardRoute)
		// 421: the monitor hashes to another replica. The owner index in the
		// message is the routing hint a client-side router needs.
		s.metrics.wrongShard.Add(1)
		httpError(w, http.StatusMisdirectedRequest, "wrong_shard",
			"monitor %q belongs to shard %d of %d (this is shard %d)",
			id, s.ring.owner(id), s.shardN, s.shardIdx)
		return "wrongshard"
	}
	s.mu.Lock()
	entry := s.monitors[id]
	s.mu.Unlock()
	if sharded {
		tr.Mark(obs.StageShardRoute)
	}
	if entry == nil {
		httpError(w, http.StatusNotFound, "not_found", "no monitor %q", id)
		return "notfound"
	}
	switch {
	case action == "" && r.Method == http.MethodGet:
		s.handleMonitorStats(w, entry)
		return "monitor"
	case action == "" && r.Method == http.MethodDelete:
		s.mu.Lock()
		delete(s.monitors, id)
		delete(s.residents, id)
		s.mu.Unlock()
		s.removeMonitorFile(id)
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
		return "delete"
	case action == "estimate" && r.Method == http.MethodPost:
		s.handleEstimate(w, r, entry)
		return "estimate"
	case action == "track" && r.Method == http.MethodPost:
		s.handleTrack(w, r, entry)
		return "track"
	case action == "govern" && r.Method == http.MethodPost:
		s.handleGovern(w, r, entry)
		return "govern"
	default:
		httpError(w, http.StatusNotFound, "not_found", "no route %s %s", r.Method, r.URL.Path)
		return "notfound"
	}
}

type estimateRequest struct {
	// Readings is captured raw and parsed by the pooled fast scanner in
	// codec.go — the array is the bulk of the request bytes, and reflective
	// decode of it dominated the serving profile.
	Readings    json.RawMessage `json:"readings"`
	IncludeMaps bool            `json:"include_maps"`
}

func releaseNothing() {}

// Request-body bounds, checked before a body is buffered. A JSON reading
// is at most 24 bytes in shortest round-trip form
// ("-2.2250738585072014e-308"); its allowance adds a separator and
// whitespace, a row's allowance its brackets, and the slack covers the
// keys, whitespace and a govern config object. A binary frame (8 bytes a
// reading) always fits the same bound. Create bodies (a training
// configuration, perhaps an explicit sensor list or an inline workload
// spec) get a fixed bound.
const (
	bodyBytesPerReading = 32
	bodyBytesPerRow     = 16
	bodySlack           = 64 << 10
	maxCreateBody       = 1 << 20
)

// bodyLimit is the largest estimate, track or govern body the monitor
// accepts: -max-batch rows of the readings its clients send.
func (s *server) bodyLimit(rs *residentState) int64 {
	return int64(s.maxBatch)*(int64(rs.clientWidth())*bodyBytesPerReading+bodyBytesPerRow) + bodySlack
}

// limitBody bounds r's body to n bytes before anything buffers it. A
// declared length over the bound is answered 413 body_too_large at once;
// any other body stops reading at the bound, and badBody maps that read
// error onto the same answer.
func limitBody(w http.ResponseWriter, r *http.Request, n int64) bool {
	if r.ContentLength > n {
		httpError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"request body of %d bytes exceeds the %d-byte limit", r.ContentLength, n)
		return false
	}
	// The server's own writer, so that it closes the connection rather
	// than drain the rest of an over-bound body.
	rw := w
	if sw, ok := w.(*statusWriter); ok {
		rw = sw.ResponseWriter
	}
	r.Body = http.MaxBytesReader(rw, r.Body, n)
	return true
}

// badBody answers a body that failed to read or decode: 413
// body_too_large when the read hit limitBody's bound, else 400 with code
// and format applied to err.
func badBody(w http.ResponseWriter, err error, code, format string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"request body exceeds the %d-byte limit", tooLarge.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, code, format, err)
}

// bodyPool recycles whole-request read buffers for the estimate hot path.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeEstimateRequest parses an estimate/track body: one read into a
// pooled buffer, then the single-pass scanner in codec.go, with encoding/json
// as the fallback authority for anything the scanner does not claim. The
// returned rows may alias pooled storage: call release exactly once, after
// the rows (and any result slices aliasing them) are dead.
func decodeEstimateRequest(r io.Reader, req *estimateRequest) (rows [][]float64, release func(), err error) {
	body := bodyPool.Get().(*bytes.Buffer)
	body.Reset()
	if _, err := body.ReadFrom(r); err != nil {
		bodyPool.Put(body)
		return nil, releaseNothing, err
	}
	data := body.Bytes()
	buf := readingsPool.Get().(*readingsBuf)
	if rows, ok := buf.parseEstimateRequest(data, req); ok {
		bodyPool.Put(body)
		return rows, func() { readingsPool.Put(buf) }, nil
	}
	readingsPool.Put(buf)
	defer bodyPool.Put(body)
	rows, err = decodeEstimateJSON(data, req)
	return rows, releaseNothing, err
}

// decodeEstimateJSON decodes an estimate/track body the walker did not
// claim (escapes, extra keys, non-numeric tokens, malformed JSON) through
// encoding/json, the authority on such bodies, which also reports its
// error; unknown fields stay ignored, exactly as before the fast path. It
// decodes into a copy of *req and is a function of its own so that the
// fallback's addresses do not move the fast path's request and rows to the
// heap on every request.
func decodeEstimateJSON(data []byte, req *estimateRequest) ([][]float64, error) {
	fallback := *req
	if err := json.Unmarshal(data, &fallback); err != nil {
		return nil, err
	}
	*req = fallback
	if len(req.Readings) == 0 {
		// Field absent: same as an empty batch downstream.
		return nil, nil
	}
	var rows [][]float64
	if err := json.Unmarshal(req.Readings, &rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// snapshotSummary is the per-snapshot digest a thermal manager consumes.
// It is the wire package's Summary, by alias rather than by copy: the JSON
// codec (tags on wire.Summary) and the binary codec encode the same struct,
// so the two protocols cannot drift apart field-wise — which is what the
// cross-protocol parity pin relies on.
type snapshotSummary = wire.Summary

// summarize digests one map: max, min and the first cell attaining the
// max, bitwise those of one left-to-right scan, and the mean as a blocked
// sum (mat.Summarize, one vector pass on amd64). Estimate, govern and
// track all digest through it.
func summarize(x []float64, includeMap bool) snapshotSummary {
	hi, lo, mean, maxCell := mat.Summarize(x)
	sum := snapshotSummary{MaxC: hi, MinC: lo, MeanC: mean, MaxCell: maxCell}
	if includeMap {
		sum.Map = x
	}
	return sum
}

func (s *server) checkBatch(w http.ResponseWriter, readings [][]float64) bool {
	if len(readings) == 0 {
		httpError(w, http.StatusBadRequest, "empty_batch", "empty batch")
		return false
	}
	if len(readings) > s.maxBatch {
		httpError(w, http.StatusBadRequest, "batch_too_large", "batch of %d exceeds limit %d", len(readings), s.maxBatch)
		return false
	}
	return true
}

// residentHTTP pages e in (or touches its resident state) and maps paging
// failures onto the error envelope: a vanished record is the client-visible
// 404 record_missing, anything else (corrupt record, mismatched ID) is a
// 500 record_corrupt. Both reach the log with the typed *store.Error.
func (s *server) residentHTTP(w http.ResponseWriter, e *monitorEntry) (*residentState, bool) {
	rs, err := s.resident(e, traceOf(w))
	if err == nil {
		return rs, true
	}
	if errors.Is(err, fs.ErrNotExist) {
		httpError(w, http.StatusNotFound, "record_missing",
			"monitor %s: record vanished from the store: %v", e.id, err)
	} else {
		httpError(w, http.StatusInternalServerError, "record_corrupt",
			"monitor %s: paging in: %v", e.id, err)
	}
	return nil, false
}

// estimateMaps is the compute path shared by the estimate and govern routes
// over both protocols: one batched GEMM against the monitor's operator into
// pooled output buffers, reused across requests instead of re-allocating
// batch × N floats. done releases them — call it exactly once, after the
// maps are encoded.
func (s *server) estimateMaps(rs *residentState, readings [][]float64, tr *obs.Trace) (maps [][]float64, done func(), err error) {
	buf := getMaps(len(readings), rs.mon.N())
	if err := rs.mon.EstimateBatchInto(*buf, readings, 0); err != nil {
		putMaps(buf)
		return nil, releaseNothing, err
	}
	tr.Mark(obs.StageSolve)
	return *buf, func() { putMaps(buf) }, nil
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request, e *monitorEntry) {
	rs, ok := s.residentHTTP(w, e)
	if !ok || !limitBody(w, r, s.bodyLimit(rs)) {
		return
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType) {
		s.handleEstimateBinary(w, r, e, rs)
		return
	}
	tr := traceOf(w)
	var req estimateRequest
	readings, release, err := decodeEstimateRequest(r.Body, &req)
	tr.Mark(obs.StageDecode)
	if err != nil {
		badBody(w, err, "bad_json", "bad JSON: %v")
		return
	}
	defer release()
	if !s.checkBatch(w, readings) {
		return
	}
	readings = rs.compactReadings(readings)
	maps, done, err := s.estimateMaps(rs, readings, tr)
	if err != nil {
		// Wrong-length vectors, NaN/Inf readings: client error, never a panic.
		httpError(w, http.StatusBadRequest, "bad_readings", "estimate: %v", err)
		return
	}
	defer done()
	quality := s.feedDrift(e, rs, readings, maps, tr)
	s.snapshots.Add(int64(len(maps)))
	e.snapshots.Add(int64(len(maps)))
	out := make([]snapshotSummary, len(maps))
	for i, x := range maps {
		out[i] = summarize(x, req.IncludeMaps)
	}
	// Hand-rendered response (see codec.go): same bytes a json.Encoder would
	// produce for {"quality":"...","results":[...]}, minus the reflection.
	// Everything after the drift span — summarize, render, the body write —
	// is the encode stage; Tail attributes it at Finish with zero clock
	// reads (the already-sent Server-Timing header carries the interior
	// stages; the flight-recorder waterfall includes encode).
	tr.Tail(obs.StageEncode)
	body := responsePool.Get().(*[]byte)
	*body = appendEstimateResponse((*body)[:0], out, quality.String())
	s.writeResponse(w, "application/json", body)
}

// wireBufPool recycles binary-protocol decode scratch, mirroring the JSON
// path's readingsPool.
var wireBufPool = sync.Pool{New: func() any { return new(wire.ReadingsBuf) }}

// handleEstimateBinary serves one application/x-emaps estimate. The decoded
// request and the computed summaries are the same structs the JSON path
// sees — only the bytes on the wire differ. Errors keep the JSON envelope
// regardless of the request protocol, so error handling is one client code
// path.
func (s *server) handleEstimateBinary(w http.ResponseWriter, r *http.Request, e *monitorEntry, rs *residentState) {
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
	req, err := wire.DecodeEstimateRequest(body.Bytes(), scratch)
	tr.Mark(obs.StageDecode)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_frame", "%v", err)
		return
	}
	if !s.checkBatch(w, req.Readings) {
		return
	}
	readings := req.Readings
	readings = rs.compactReadings(readings)
	maps, done, err := s.estimateMaps(rs, readings, tr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_readings", "estimate: %v", err)
		return
	}
	defer done()
	quality := s.feedDrift(e, rs, readings, maps, tr)
	s.snapshots.Add(int64(len(maps)))
	e.snapshots.Add(int64(len(maps)))
	out := make([]wire.Summary, len(maps))
	for i, x := range maps {
		out[i] = summarize(x, req.IncludeMaps)
	}
	tr.Tail(obs.StageEncode)
	respBuf := responsePool.Get().(*[]byte)
	*respBuf = wire.AppendEstimateResponse((*respBuf)[:0], out, qualityFor(quality))
	s.writeResponse(w, wire.ContentType, respBuf)
}

func (s *server) handleTrack(w http.ResponseWriter, r *http.Request, e *monitorEntry) {
	rs, ok := s.residentHTTP(w, e)
	if !ok {
		return
	}
	if rs.kf == nil {
		httpError(w, http.StatusBadRequest, "no_tracker", "monitor %s has no tracker (create with \"tracking\": true)", e.id)
		return
	}
	if !limitBody(w, r, s.bodyLimit(rs)) {
		return
	}
	tr := traceOf(w)
	var req estimateRequest
	readings, release, err := decodeEstimateRequest(r.Body, &req)
	tr.Mark(obs.StageDecode)
	if err != nil {
		badBody(w, err, "bad_json", "bad JSON: %v")
		return
	}
	defer release()
	if !s.checkBatch(w, readings) {
		return
	}
	readings = rs.compactReadings(readings)
	buf := getMaps(len(readings), rs.mon.N())
	defer putMaps(buf)
	maps := *buf
	// steps and uncertainty describe the tracker right after this batch:
	// both come from the critical section that applied it.
	steps, uncertainty, err := rs.kf.StepBatchInto(maps, readings)
	tr.Mark(obs.StageSolve)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_readings", "track: %v", err)
		return
	}
	// Kalman-smoothed maps are not the least-squares projection, so the
	// tracker path scores drift with the residual matvec, not the estimates.
	quality := s.feedDrift(e, rs, readings, nil, tr)
	s.snapshots.Add(int64(len(maps)))
	e.snapshots.Add(int64(len(maps)))
	out := make([]snapshotSummary, len(maps))
	for i, x := range maps {
		out[i] = summarize(x, req.IncludeMaps)
	}
	// Everything after the drift span is the encode stage, as on estimate.
	tr.Tail(obs.StageEncode)
	body := responsePool.Get().(*[]byte)
	*body = appendTrackResponse((*body)[:0], out, quality.String(), steps, uncertainty)
	s.writeResponse(w, "application/json", body)
}

// --- plumbing ---

// writeResponse writes a rendered 200 reply from a responsePool buffer and
// returns the buffer to the pool.
func (s *server) writeResponse(w http.ResponseWriter, contentType string, body *[]byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(*body); err != nil && s.logger != nil {
		s.logger.Error("write response", "err", err)
	}
	responsePool.Put(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("emapsd: encode response: %v", err)
	}
}

// errorBody is the uniform error envelope every failure is written as:
// {"error":{"code":"...","message":"...","request_id":"..."}}. Codes are
// stable slugs clients can switch on; messages are human-readable detail
// that may change; request_id (absent only when tracing is stripped) is
// the handle that joins the failure to its slog line and debug trace.
type errorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	var rid string
	if tr := traceOf(w); tr != nil {
		rid = tr.ID
	}
	writeJSON(w, status, map[string]errorBody{
		"error": {Code: code, Message: fmt.Sprintf(format, args...), RequestID: rid},
	})
}
