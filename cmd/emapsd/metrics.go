package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// metricsSet is the daemon's observability state: per-route request counts
// (by status code) and latency histograms, per-stage latency histograms,
// and counters for the model cache and the persistence store. Rendered in
// the Prometheus text exposition format at GET /metrics, so any scraper
// can derive request rates, error ratios, cache hit ratios and snapshots/s
// without the daemon having to compute windows itself.
//
// The request-path side takes no global lock: routes live in an
// obs.Registry (a sync.Map lookup plus atomic adds), and the per-stage
// histograms in the flight recorder (obs.Ring), which takes a trace's
// spans under the lock of the ring slot the trace goes into. The old
// mutexed routeMetrics map serialized every request on one lock; under
// the million-monitor load profile that lock was the only cross-request
// shared write besides the counters, and it is gone.
type metricsSet struct {
	routes *obs.Registry

	cacheHits       atomic.Int64 // model cache: key already resident
	cacheMisses     atomic.Int64 // model cache: key absent (train or disk load)
	modelsTrained   atomic.Int64 // full simulate+train runs
	modelsLoaded    atomic.Int64 // models reloaded from the store instead of retrained
	modelsEvicted   atomic.Int64 // models dropped from memory to make room
	monitorsLoaded  atomic.Int64 // monitor records paged in (boot scan or first touch)
	monitorsEvicted atomic.Int64 // resident monitors paged out under -max-monitors pressure
	storeSaves      atomic.Int64 // records persisted (models + monitors)
	storeFailures   atomic.Int64 // persistence or store-load failures (daemon kept serving)
	indexRebuilds   atomic.Int64 // store-index decode failures downgraded to a scan
	lockWaits       atomic.Int64 // times this replica waited on another's lockfile
	lockSteals      atomic.Int64 // stale lockfiles stolen from dead replicas
	wrongShard      atomic.Int64 // requests refused with 421 (monitor owned elsewhere)

	adaptations  atomic.Int64 // monitor hot-swaps (basis adaptations + sensor exclusions)
	sensorFaults atomic.Int64 // faulty sensors excluded from serving
}

// latencyBuckets are the request-histogram upper bounds in seconds. The
// serving path spans ~100µs cached estimates to multi-second cold
// trainings, so the buckets are log-spaced across that range.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// stageBuckets are the per-stage histogram bounds. Stages are slices of a
// request, so the range shifts down: decode and shard routing sit in the
// tens of microseconds, a large batched solve in the milliseconds.
var stageBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

func newMetricsSet() *metricsSet {
	return &metricsSet{routes: obs.NewRegistry(latencyBuckets)}
}

// observe records one completed request. Lock-free: a sync.Map load plus
// a handful of atomic adds.
func (m *metricsSet) observe(route string, code int, d time.Duration) {
	rs := m.routes.Route(route)
	rs.Latency.Observe(d)
	rs.ObserveCode(code)
}

// gauges is the point-in-time state rendered alongside the counters.
type gauges struct {
	models    int
	monitors  int
	requests  int64
	snapshots int64
	fileOpens int64

	// driftStates is one entry per calibrated resident monitor: its current
	// verdict as a labeled gauge (0 = ok, 1 = drifting, 2 = degraded).
	driftStates []driftGauge

	// governors is one entry per monitor with an installed governor: its
	// cumulative governed snapshots and throttle duty.
	governors []governGauge

	// stages is each serving stage's latency histogram, from the flight
	// recorder.
	stages [obs.NumStages]obs.HistSnapshot
}

// driftGauge is one monitor's drift verdict for the exposition.
type driftGauge struct {
	id    string
	state int
}

// governGauge is one governed monitor's closed-loop counters for the
// exposition.
type governGauge struct {
	id        string
	snapshots uint64
	duty      float64
}

// render writes the Prometheus text exposition format. Output is
// deterministic (routes, codes and stages sorted) so tests and shell
// pipelines can grep exact lines. Counter and histogram reads are
// eventually consistent with in-flight requests, which cumulative scrapes
// tolerate by design.
func (m *metricsSet) render(w io.Writer, g gauges) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	snaps := m.routes.Snapshot()
	fmt.Fprintf(w, "# HELP emapsd_requests_total Requests served, by route and status code.\n# TYPE emapsd_requests_total counter\n")
	for _, rs := range snaps {
		for _, cc := range rs.Codes {
			fmt.Fprintf(w, "emapsd_requests_total{route=%q,code=\"%d\"} %d\n", rs.Label, cc.Code, cc.Count)
		}
	}
	fmt.Fprintf(w, "# HELP emapsd_request_duration_seconds Request latency, by route.\n# TYPE emapsd_request_duration_seconds histogram\n")
	for _, rs := range snaps {
		writeHist(w, "emapsd_request_duration_seconds", "route", rs.Label, rs.Latency)
	}
	fmt.Fprintf(w, "# HELP emapsd_stage_duration_seconds Serving-stage latency, by stage (decode, shard_route, page_in, solve, drift_score, adapt, govern, encode).\n# TYPE emapsd_stage_duration_seconds histogram\n")
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		snap := g.stages[st]
		if snap.Count == 0 {
			continue
		}
		writeHist(w, "emapsd_stage_duration_seconds", "stage", st.String(), snap)
	}

	counter("emapsd_snapshots_total", "Snapshots estimated across all monitors (rate = snapshots/s).", g.snapshots)
	counter("emapsd_model_cache_hits_total", "Model-cache lookups that found the training configuration resident.", m.cacheHits.Load())
	counter("emapsd_model_cache_misses_total", "Model-cache lookups that had to train or load from the store.", m.cacheMisses.Load())
	counter("emapsd_models_trained_total", "Full simulate+train runs executed.", m.modelsTrained.Load())
	counter("emapsd_models_store_loaded_total", "Models reloaded from the store instead of retrained.", m.modelsLoaded.Load())
	counter("emapsd_models_evicted_total", "Models evicted from memory to the store to make room.", m.modelsEvicted.Load())
	counter("emapsd_monitors_loaded_total", "Monitor records paged in from the store (boot scan or first touch).", m.monitorsLoaded.Load())
	counter("emapsd_monitors_evicted_total", "Resident monitors paged out under -max-monitors pressure.", m.monitorsEvicted.Load())
	counter("emapsd_store_saves_total", "Records persisted to the store (models and monitors).", m.storeSaves.Load())
	counter("emapsd_store_failures_total", "Store read/write failures the daemon survived.", m.storeFailures.Load())
	counter("emapsd_index_rebuilds_total", "Store-index decode failures downgraded to a rebuild-from-scan.", m.indexRebuilds.Load())
	counter("emapsd_lock_waits_total", "Times this replica waited on another replica's lockfile.", m.lockWaits.Load())
	counter("emapsd_lock_steals_total", "Stale lockfiles stolen from dead replicas.", m.lockSteals.Load())
	counter("emapsd_wrong_shard_total", "Requests refused with 421 because another shard owns the monitor.", m.wrongShard.Load())
	counter("emapsd_adaptations_total", "Monitor hot-swaps: basis adaptations plus sensor exclusions.", m.adaptations.Load())
	counter("emapsd_sensor_faults_total", "Faulty sensors excluded from serving.", m.sensorFaults.Load())
	fmt.Fprintf(w, "# HELP emapsd_drift_state Per-monitor drift verdict (0 = ok, 1 = drifting, 2 = degraded).\n# TYPE emapsd_drift_state gauge\n")
	for _, dg := range g.driftStates {
		fmt.Fprintf(w, "emapsd_drift_state{monitor=%q} %d\n", dg.id, dg.state)
	}
	if len(g.governors) > 0 {
		fmt.Fprintf(w, "# HELP emapsd_governed_snapshots_total Snapshots run through each monitor's governor.\n# TYPE emapsd_governed_snapshots_total counter\n")
		for _, gg := range g.governors {
			fmt.Fprintf(w, "emapsd_governed_snapshots_total{monitor=%q} %d\n", gg.id, gg.snapshots)
		}
		fmt.Fprintf(w, "# HELP emapsd_govern_throttle_duty Cumulative fraction of governed core-intervals capped below nominal frequency. Pinned near 1 with temperatures still over the ceiling = control authority exhausted.\n# TYPE emapsd_govern_throttle_duty gauge\n")
		for _, gg := range g.governors {
			fmt.Fprintf(w, "emapsd_govern_throttle_duty{monitor=%q} %g\n", gg.id, gg.duty)
		}
	}
	gauge("emapsd_models", "Trained models resident in memory.", g.models)
	gauge("emapsd_monitors", "Live monitors.", g.monitors)
	counter("emapsd_http_requests_total", "All HTTP requests, any route.", g.requests)
	counter("emapsd_file_opens_total", "Store files opened (reads and writes).", g.fileOpens)

	// Runtime gauges: the process-health side of the flight recorder. Read
	// at scrape time; ReadMemStats briefly stops the world, which a scrape
	// cadence amortizes to nothing.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("emapsd_goroutines", "Live goroutines.", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP emapsd_heap_alloc_bytes Heap bytes allocated and in use.\n# TYPE emapsd_heap_alloc_bytes gauge\nemapsd_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP emapsd_gc_pause_seconds_total Cumulative stop-the-world GC pause time.\n# TYPE emapsd_gc_pause_seconds_total counter\nemapsd_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(w, "# HELP emapsd_gc_cycles_total Completed GC cycles.\n# TYPE emapsd_gc_cycles_total counter\nemapsd_gc_cycles_total %d\n", ms.NumGC)
}

// writeHist emits one label's cumulative histogram series.
func writeHist(w io.Writer, name, labelKey, labelVal string, snap obs.HistSnapshot) {
	var cum int64
	for i, ub := range snap.Bounds {
		cum = snap.Cumulative[i]
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, labelKey, labelVal, trimFloat(ub), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, labelKey, labelVal, snap.Count)
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, labelKey, labelVal, snap.Sum)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, labelKey, labelVal, snap.Count)
}

// trimFloat renders a bucket bound the way Prometheus clients do (no
// trailing zeros).
func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}

// statusWriter captures the status code and body size a handler produced,
// for the request log and the per-route metrics, and injects the
// Server-Timing stage breakdown just before the header is flushed. It
// passes http.Flusher through so streaming handlers behind the wrapper can
// still flush.
type statusWriter struct {
	http.ResponseWriter
	status      int
	bytes       int
	wroteHeader bool
	// tr points at the embedded trace when the request is traced, nil when
	// stripped — handlers fetch it via traceOf and every trace method is
	// nil-safe, so the stripped path pays only this nil.
	tr    *obs.Trace
	trace obs.Trace
	// wantTiming is set when the client identified the request with an
	// X-Request-Id of its own: Server-Timing is an opt-in contract, so
	// anonymous hot-path traffic skips the header's build cost and its
	// ~60 bytes per response.
	wantTiming bool
	// Pre-sized backing arrays for the two header values the wrapper sets
	// on every traced response, so neither costs a []string allocation.
	idHolder [1]string
	stHolder [1]string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	w.status = code
	if w.wantTiming {
		if v := w.tr.ServerTiming(); v != "" {
			// Direct map assignment: the header name is already in canonical
			// MIME form, so Set's canonicalization pass is pure overhead here.
			w.stHolder[0] = v
			w.Header()[wire.HeaderServerTiming] = w.stHolder[:]
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Flush implements http.Flusher when the underlying writer does, so
// wrapping a streaming response does not silently disable flushing.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		if !w.wroteHeader {
			w.WriteHeader(http.StatusOK)
		}
		f.Flush()
	}
}

// Unwrap supports http.ResponseController pass-through.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
