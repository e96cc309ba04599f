// Command emapsload is the serving layer's load generator: it hammers a
// running emapsd daemon's estimate, track or govern endpoint from a
// configurable number of concurrent clients for a fixed duration (or
// request budget) and reports throughput and latency percentiles as JSON —
// the end-to-end number the serving path is optimized against.
//
//	emapsload -addr 127.0.0.1:8760 -concurrency 8 -duration 10s
//
// By default it creates its own small monitor (deleted again afterwards
// unless -keep is set); point it at an existing monitor with -monitor.
//
// Fleet mode: -monitors N spreads the load over N monitors, with each
// request picking its target by a zipfian draw (-zipf s, s > 1; s <= 1
// falls back to uniform) — the skewed access pattern a million-monitor
// deployment sees, where a hot head stays resident and a long tail pages
// in and out. -addrs host:p0,host:p1 points the run at several sharded
// replicas sharing one store: monitors are created round-robin (each
// replica allocates only IDs it owns, so the creating replica is the
// owner) and every request is routed to its monitor's owner, exercising
// the same id→shard pinning a production router would do. To re-drive an
// existing fleet (say, after a replica restart, to measure the cold
// page-in tail) pass the ids instead: -monitor mon-1,mon-4,mon-7 — each id
// is located on whichever replica lists it, and the -monitor order is the
// zipf rank order (first id hottest). -proto binary switches the estimate
// and govern
// payloads to the application/x-emaps wire protocol.
//
// The report goes to stdout or -out, in one of three formats (-format):
//
//   - json (default) — the Report structure below
//
//   - prom — Prometheus text exposition (emapsload_* metrics), for pushing
//     into a scrape pipeline
//
//   - bench — a cmd/bench2json-compatible benchmark document carrying
//     snapshots/s, requests/s and latency percentiles, so cmd/benchdiff can
//     gate serving throughput exactly like the microbenchmarks
//
//     {
//     "endpoint": "estimate", "concurrency": 8, "batch": 16,
//     "requests": 5231, "errors": 0, "snapshots": 83696,
//     "requests_per_s": 523.0, "snapshots_per_s": 8369.4,
//     "latency_ms": {"mean": 15.2, "p50": 14.1, "p90": 21.0, "p99": 38.7, "max": 55.2}
//     }
//
// Latency is measured per request (client-observed, including JSON
// encode/decode on the daemon side); percentiles use the nearest-rank
// method over every completed request. Non-2xx responses count as errors
// and are excluded from the latency population; a run with any errors
// exits 1 (after writing its report), so CI load gates fail loudly instead
// of gating on a partially failed run.
//
// Fault mode: -fault injects deterministic sensor faults into the generated
// readings (the drift package's fault grammar, which thermsim also reads):
//
//	emapsload -fault stuck:3,drop:0.01,drift:web->compute@30s
//
// stuck:IDX[:VALUE] freezes one sensor, drop:RATE zeroes readings with the
// given probability, offset:IDX:DELTA biases one sensor, and
// drift:FROM->TO@DUR switches the synthetic workload family mid-run — the
// whole point being to drive the daemon's drift detector. Each worker owns
// an injector seeded -fault-seed+worker, so runs are reproducible. Every
// response's quality verdict (the "quality" JSON field or the binary flags
// word) is counted in the report's "quality" section; -fail-on-degraded
// makes the run exit 1 when any response carried quality "degraded", so a
// CI drift gate can assert the daemon adapted before serving degraded
// estimates. Fault mode builds a fresh corrupted body per request, so its
// latency numbers include generation cost — use fault runs for robustness
// gates, clean runs for throughput baselines.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchjson"
	"repro/internal/drift"
	"repro/internal/wire"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:8760", "daemon address (host:port)")
	flag.StringVar(&cfg.Addrs, "addrs", "", "comma-separated replica addresses (sharded daemons over one store; overrides -addr)")
	flag.StringVar(&cfg.Monitor, "monitor", "", "existing monitor id(s) to load, comma-separated (default: create -monitors new ones)")
	flag.IntVar(&cfg.Monitors, "monitors", 1, "monitors to spread the load over (created unless -monitor is set)")
	flag.Float64Var(&cfg.Zipf, "zipf", 0, "zipf exponent for monitor selection (> 1 = skewed; <= 1 = uniform)")
	flag.StringVar(&cfg.Proto, "proto", "json", "estimate request encoding: json or binary (application/x-emaps)")
	flag.StringVar(&cfg.CreateBody, "create-body", defaultCreateBody, "JSON body used to create the monitor when -monitor is empty")
	flag.StringVar(&cfg.Endpoint, "endpoint", "estimate", "endpoint to load: estimate, track or govern")
	flag.IntVar(&cfg.Batch, "batch", 16, "snapshots (readings) per request")
	flag.IntVar(&cfg.Concurrency, "concurrency", 4, "concurrent client goroutines")
	flag.DurationVar(&cfg.Duration, "duration", 10*time.Second, "how long to generate load")
	flag.IntVar(&cfg.Requests, "requests", 0, "stop after this many requests instead of -duration (0 = use -duration)")
	flag.BoolVar(&cfg.Keep, "keep", false, "keep the created monitor instead of deleting it")
	flag.StringVar(&cfg.Fault, "fault", "", "fault spec injected into generated readings, e.g. stuck:3,drop:0.01,drift:web->compute@30s")
	flag.Int64Var(&cfg.FaultSeed, "fault-seed", 1, "base seed for the per-worker fault injectors")
	flag.BoolVar(&cfg.FailOnDegraded, "fail-on-degraded", false, `exit 1 when any response carried quality "degraded"`)
	flag.StringVar(&cfg.GovernConfig, "govern-config", `{"policy":"hysteresis","ceiling_c":70}`, "governor config JSON installed once per monitor before a -endpoint govern run")
	format := flag.String("format", "json", "report format: json, prom or bench")
	out := flag.String("out", "", "write the report here instead of stdout")
	flag.Parse()

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emapsload: %v\n", err)
		os.Exit(1)
	}
	blob, err := renderReport(rep, *format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emapsload: %v\n", err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "emapsload: %v\n", err)
		os.Exit(1)
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "emapsload: %d of %d requests failed\n", rep.Errors, rep.Requests)
		os.Exit(1)
	}
	if cfg.FailOnDegraded && rep.Quality.Degraded > 0 {
		fmt.Fprintf(os.Stderr, "emapsload: %d of %d responses carried quality \"degraded\"\n", rep.Quality.Degraded, rep.Requests)
		os.Exit(1)
	}
}

// renderReport serializes rep in the requested format. Unknown formats are
// an error, not a silent JSON fallback — a typo'd -format in a CI gate must
// fail the gate, not feed benchdiff the wrong schema.
func renderReport(rep *Report, format string) ([]byte, error) {
	switch format {
	case "json":
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("encoding report: %w", err)
		}
		return append(blob, '\n'), nil
	case "prom":
		var buf bytes.Buffer
		counter := func(name, help string, v float64) {
			fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
		}
		gauge := func(name, help string, v float64) {
			fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
		}
		counter("emapsload_requests_total", "Requests issued by the load run.", float64(rep.Requests))
		counter("emapsload_errors_total", "Requests that failed (non-2xx or transport error).", float64(rep.Errors))
		counter("emapsload_snapshots_total", "Snapshots served across all successful requests.", float64(rep.Snapshots))
		fmt.Fprintf(&buf, "# HELP emapsload_quality_total Successful responses by daemon-reported quality verdict.\n# TYPE emapsload_quality_total counter\n")
		for _, q := range []struct {
			label string
			v     int64
		}{{"ok", rep.Quality.OK}, {"drifting", rep.Quality.Drifting}, {"degraded", rep.Quality.Degraded}} {
			fmt.Fprintf(&buf, "emapsload_quality_total{quality=%q} %d\n", q.label, q.v)
		}
		gauge("emapsload_requests_per_second", "Successful requests per second.", rep.RequestsPerS)
		gauge("emapsload_snapshots_per_second", "Snapshots per second — the serving throughput headline.", rep.SnapshotsPS)
		gauge("emapsload_duration_seconds", "Wall-clock duration of the load phase.", rep.DurationS)
		for _, q := range []struct {
			label string
			v     float64
		}{{"0.5", rep.LatencyMS.P50}, {"0.9", rep.LatencyMS.P90}, {"0.99", rep.LatencyMS.P99}} {
			fmt.Fprintf(&buf, "emapsload_latency_ms{quantile=%q} %g\n", q.label, q.v)
		}
		gauge("emapsload_latency_ms_mean", "Mean per-request latency in milliseconds.", rep.LatencyMS.Mean)
		gauge("emapsload_latency_ms_max", "Worst per-request latency in milliseconds.", rep.LatencyMS.Max)
		if st := rep.ServerTiming; st != nil {
			counter("emapsload_server_timing_requests_total", "Successful responses carrying a Server-Timing header.", float64(st.Requests))
			fmt.Fprintf(&buf, "# HELP emapsload_server_timing_ms Mean server-side stage latency from Server-Timing headers, in milliseconds.\n# TYPE emapsload_server_timing_ms gauge\n")
			stages := make([]string, 0, len(st.MeanMS))
			for stage := range st.MeanMS {
				stages = append(stages, stage)
			}
			sort.Strings(stages)
			for _, stage := range stages {
				fmt.Fprintf(&buf, "emapsload_server_timing_ms{stage=%q} %g\n", stage, st.MeanMS[stage])
			}
		}
		return buf.Bytes(), nil
	case "bench":
		doc := benchjson.Doc{
			Goos:   runtime.GOOS,
			Goarch: runtime.GOARCH,
			Results: []benchjson.Result{{
				// A stable benchmark-style name so cmd/benchdiff keys the
				// serving gate the same way it keys microbenchmarks.
				Name:    "BenchmarkServingLoad/endpoint=" + rep.Endpoint,
				Package: "cmd/emapsload",
				Iters:   rep.Requests,
				Metrics: map[string]float64{
					"snapshots/s": rep.SnapshotsPS,
					"requests/s":  rep.RequestsPerS,
					"p50_ms":      rep.LatencyMS.P50,
					"p99_ms":      rep.LatencyMS.P99,
				},
			}},
		}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("encoding bench document: %w", err)
		}
		return append(blob, '\n'), nil
	}
	return nil, fmt.Errorf("unknown format %q (want json, prom or bench)", format)
}

// defaultCreateBody trains a small monitor quickly (~1 s): the load test
// measures the serving path, not training. Tracking is enabled so the same
// monitor serves -endpoint track runs too.
const defaultCreateBody = `{"floorplan":"t1","grid_w":12,"grid_h":10,"snapshots":80,"seed":1,"kmax":8,"k":4,"m":8,"tracking":true}`

type config struct {
	Addr           string
	Addrs          string
	Monitor        string
	Monitors       int
	Zipf           float64
	Proto          string
	CreateBody     string
	Endpoint       string
	Batch          int
	Concurrency    int
	Duration       time.Duration
	Requests       int
	Keep           bool
	Fault          string
	FaultSeed      int64
	FailOnDegraded bool
	GovernConfig   string
}

// Report is the machine-readable result. CI archives it as the serving
// baseline; later perf PRs diff against it.
type Report struct {
	Addr         string    `json:"addr"`
	Replicas     []string  `json:"replicas,omitempty"`
	Endpoint     string    `json:"endpoint"`
	Proto        string    `json:"proto"`
	Monitor      string    `json:"monitor"`
	Monitors     int       `json:"monitors"`
	Zipf         float64   `json:"zipf"`
	Concurrency  int       `json:"concurrency"`
	Batch        int       `json:"batch"`
	DurationS    float64   `json:"duration_s"`
	Requests     int64     `json:"requests"`
	Errors       int64     `json:"errors"`
	Snapshots    int64     `json:"snapshots"`
	RequestsPerS float64   `json:"requests_per_s"`
	SnapshotsPS  float64   `json:"snapshots_per_s"`
	LatencyMS    Latencies `json:"latency_ms"`

	// Fault is the injected fault spec (empty = clean run); Quality counts
	// successful responses by the daemon's stamped verdict. A clean run
	// against a healthy daemon reports every response under "ok".
	Fault   string        `json:"fault,omitempty"`
	Quality QualityCounts `json:"quality"`

	// ServerTiming is the client-visible stage breakdown aggregated from the
	// daemon's Server-Timing response headers — where the request's time went
	// on the server, as seen from the load generator. Omitted when the
	// daemon sent no timing headers (older daemon, stripped tracing).
	ServerTiming *ServerTimingReport `json:"server_timing,omitempty"`
}

// ServerTimingReport aggregates the daemon's per-stage Server-Timing
// entries over every successful response that carried the header.
type ServerTimingReport struct {
	Requests int64              `json:"requests"` // responses carrying the header
	MeanMS   map[string]float64 `json:"mean_ms"`  // per-stage mean milliseconds
}

// QualityCounts buckets successful responses by the daemon's quality
// verdict.
type QualityCounts struct {
	OK       int64 `json:"ok"`
	Drifting int64 `json:"drifting"`
	Degraded int64 `json:"degraded"`
}

// Latencies summarizes the per-request latency population in milliseconds.
type Latencies struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// target is one monitor under load: its owning replica's URL, the request
// payload (built once — the measured variance is the serving path's, not
// the workload's), and how many snapshots one request asks for.
type target struct {
	id          string
	base        string // owning replica, "http://host:port"
	url         string
	body        []byte
	contentType string
	perReq      int
	m           int // sensors per reading vector (fault mode rebuilds bodies)
	created     bool
}

// run drives the whole load test against one or more live daemons.
func run(cfg config) (*Report, error) {
	if cfg.Concurrency < 1 {
		return nil, fmt.Errorf("concurrency %d < 1", cfg.Concurrency)
	}
	if cfg.Batch < 1 {
		return nil, fmt.Errorf("batch %d < 1", cfg.Batch)
	}
	if cfg.Monitors == 0 {
		cfg.Monitors = 1
	}
	if cfg.Monitors < 1 {
		return nil, fmt.Errorf("monitors %d < 1", cfg.Monitors)
	}
	if cfg.Proto == "" {
		cfg.Proto = "json"
	}
	switch cfg.Endpoint {
	case "estimate", "track", "govern":
	default:
		return nil, fmt.Errorf("unknown endpoint %q (want estimate, track or govern)", cfg.Endpoint)
	}
	switch cfg.Proto {
	case "json":
	case "binary":
		if cfg.Endpoint != "estimate" && cfg.Endpoint != "govern" {
			return nil, fmt.Errorf("-proto binary speaks the estimate and govern endpoints only (got %q)", cfg.Endpoint)
		}
	default:
		return nil, fmt.Errorf("unknown proto %q (want json or binary)", cfg.Proto)
	}

	faults, err := drift.ParseFaults(cfg.Fault)
	if err != nil {
		return nil, err
	}

	bases, err := resolveBases(cfg)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 60 * time.Second}
	for _, base := range bases {
		if err := checkHealth(client, base); err != nil {
			return nil, err
		}
	}
	targets, err := resolveTargets(client, bases, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Endpoint == "govern" {
		// Install the governor once per monitor before the measured run; the
		// workers then stream bare readings through it, so a fault-mode run
		// never trips the route's no-governor rejection.
		for _, tg := range targets {
			if err := installGovernor(client, tg, cfg); err != nil {
				return nil, err
			}
		}
	}
	if !cfg.Keep {
		defer func() {
			for _, tg := range targets {
				if !tg.created {
					continue
				}
				req, _ := http.NewRequest(http.MethodDelete, tg.base+"/v1/monitors/"+tg.id, nil)
				if resp, err := client.Do(req); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	var (
		wg        sync.WaitGroup
		issued    atomic.Int64 // request-budget ticket counter
		errs      atomic.Int64
		snapshots atomic.Int64
		quality   [3]atomic.Int64 // indexed by wire.Quality
		lats      = make([][]float64, cfg.Concurrency)
		// Per-worker Server-Timing accumulation, merged after the run like
		// lats — the hot loop shares nothing across workers.
		stageSums  = make([]map[string]float64, cfg.Concurrency)
		stageTimed = make([]int64, cfg.Concurrency)
	)
	for w := range stageSums {
		stageSums[w] = make(map[string]float64)
	}
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker deterministic sampler: reruns hit the same monitor
			// sequence, so run-to-run variance is the daemon's alone.
			pick := newPicker(len(targets), cfg.Zipf, int64(w)+1)
			// Per-worker deterministic injector: the same spec, seed and
			// request sequence corrupt identically across reruns.
			var inj *drift.Injector
			if len(faults) > 0 {
				inj = drift.NewInjector(faults, cfg.FaultSeed+int64(w))
			}
			var prefix [256]byte
			seq := 0
			for {
				if cfg.Requests > 0 {
					if issued.Add(1) > int64(cfg.Requests) {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				tg := targets[pick()]
				body, contentType := tg.body, tg.contentType
				if inj != nil {
					b, ct, err := faultBody(cfg, tg.m, inj, time.Since(start))
					if err != nil {
						errs.Add(1)
						continue
					}
					body, contentType = b, ct
				}
				seq++
				t0 := time.Now()
				req, err := http.NewRequest(http.MethodPost, tg.url, bytes.NewReader(body))
				if err != nil {
					errs.Add(1)
					continue
				}
				req.Header.Set("Content-Type", contentType)
				// Tag every request: the id correlates load-tool lines with
				// daemon logs and debug traces, and opts the response into
				// the Server-Timing breakdown the report consumes.
				req.Header.Set(wire.HeaderRequestID, "emapsload-w"+strconv.Itoa(w)+"-"+strconv.Itoa(seq))
				resp, err := client.Do(req)
				if err != nil {
					errs.Add(1)
					continue
				}
				n, _ := io.ReadFull(resp.Body, prefix[:])
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode/100 != 2 {
					errs.Add(1)
					continue
				}
				lats[w] = append(lats[w], time.Since(t0).Seconds())
				snapshots.Add(int64(tg.perReq))
				if q := classifyQuality(prefix[:n]); int(q) < len(quality) {
					quality[q].Add(1)
				}
				if h := resp.Header.Get(wire.HeaderServerTiming); h != "" {
					for _, t := range wire.ParseServerTiming(h) {
						stageSums[w][t.Name] += t.DurMS
					}
					stageTimed[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	rep := &Report{
		Addr: cfg.Addr, Endpoint: cfg.Endpoint, Proto: cfg.Proto,
		Monitor: targets[0].id, Monitors: len(targets), Zipf: cfg.Zipf,
		Concurrency: cfg.Concurrency, Batch: cfg.Batch,
		DurationS: elapsed,
		Requests:  int64(len(all)) + errs.Load(),
		Errors:    errs.Load(),
		Snapshots: snapshots.Load(),
		LatencyMS: summarizeLatencies(all),
		Fault:     cfg.Fault,
		Quality: QualityCounts{
			OK:       quality[wire.QualityOK].Load(),
			Drifting: quality[wire.QualityDrifting].Load(),
			Degraded: quality[wire.QualityDegraded].Load(),
		},
	}
	if cfg.Addrs != "" {
		rep.Replicas = strings.Split(cfg.Addrs, ",")
	}
	if elapsed > 0 {
		rep.RequestsPerS = float64(len(all)) / elapsed
		rep.SnapshotsPS = float64(snapshots.Load()) / elapsed
	}
	rep.ServerTiming = mergeServerTiming(stageSums, stageTimed)
	return rep, nil
}

// mergeServerTiming folds the per-worker stage sums into per-stage means.
// Returns nil when no response carried a Server-Timing header, so the
// report section (and its prom lines) vanish instead of reading as zeros.
func mergeServerTiming(sums []map[string]float64, timed []int64) *ServerTimingReport {
	var total int64
	merged := make(map[string]float64)
	for w, m := range sums {
		total += timed[w]
		for stage, sum := range m {
			merged[stage] += sum
		}
	}
	if total == 0 {
		return nil
	}
	for stage := range merged {
		merged[stage] /= float64(total)
	}
	return &ServerTimingReport{Requests: total, MeanMS: merged}
}

// newPicker returns a deterministic target sampler: zipfian over rank when
// s > 1 (rank 0 hottest), uniform otherwise. One monitor needs no RNG at
// all.
func newPicker(n int, s float64, seed int64) func() int {
	if n <= 1 {
		return func() int { return 0 }
	}
	rng := rand.New(rand.NewSource(seed))
	if s > 1 {
		z := rand.NewZipf(rng, s, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(n) }
}

// resolveBases normalizes -addr/-addrs into base URLs.
func resolveBases(cfg config) ([]string, error) {
	addrs := []string{cfg.Addr}
	if cfg.Addrs != "" {
		addrs = strings.Split(cfg.Addrs, ",")
	}
	bases := make([]string, 0, len(addrs))
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("-addrs has an empty address")
		}
		if !strings.HasPrefix(a, "http://") && !strings.HasPrefix(a, "https://") {
			a = "http://" + a
		}
		bases = append(bases, a)
	}
	return bases, nil
}

func checkHealth(client *http.Client, base string) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("daemon unreachable: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// resolveTargets builds the monitor fleet. With -monitor (one id or a
// comma-separated list, in zipf rank order) it locates each existing
// monitor's owning replica (each sharded replica lists only the monitors it
// owns, so the listing that contains the ID is the owner). With -monitors N
// it creates N monitors round-robin across the replicas — sharded daemons
// allocate only IDs they own, so the creating replica is the owner and
// every request routes exactly as a production id→shard pinning router
// would.
func resolveTargets(client *http.Client, bases []string, cfg config) ([]target, error) {
	if cfg.Monitor != "" {
		ids := strings.Split(cfg.Monitor, ",")
		want := make(map[string]int, len(ids)) // id → rank in the -monitor order
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if ids[i] == "" {
				return nil, fmt.Errorf("-monitor has an empty id")
			}
			if _, dup := want[ids[i]]; dup {
				return nil, fmt.Errorf("-monitor lists %q twice", ids[i])
			}
			want[ids[i]] = i
		}
		targets := make([]target, len(ids))
		for _, base := range bases {
			resp, err := client.Get(base + "/v1/monitors")
			if err != nil {
				return nil, err
			}
			var list struct {
				Monitors []struct {
					ID string `json:"id"`
					M  int    `json:"m"`
				} `json:"monitors"`
			}
			err = json.NewDecoder(resp.Body).Decode(&list)
			resp.Body.Close()
			if err != nil {
				return nil, fmt.Errorf("listing monitors on %s: %w", base, err)
			}
			for _, mi := range list.Monitors {
				if rank, ok := want[mi.ID]; ok && targets[rank].id == "" {
					tg, err := finishTarget(cfg, target{id: mi.ID, base: base}, mi.M)
					if err != nil {
						return nil, err
					}
					targets[rank] = tg
				}
			}
		}
		for i := range targets {
			if targets[i].id == "" {
				return nil, fmt.Errorf("no monitor %q on any replica", ids[i])
			}
		}
		return targets, nil
	}
	targets := make([]target, 0, cfg.Monitors)
	for i := 0; i < cfg.Monitors; i++ {
		base := bases[i%len(bases)]
		resp, err := client.Post(base+"/v1/monitors", "application/json", strings.NewReader(cfg.CreateBody))
		if err != nil {
			return nil, err
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("create monitor on %s: status %d: %s", base, resp.StatusCode, blob)
		}
		var cr struct {
			ID      string `json:"id"`
			Sensors []int  `json:"sensors"`
		}
		if err := json.Unmarshal(blob, &cr); err != nil {
			return nil, fmt.Errorf("create monitor: %w", err)
		}
		tg, err := finishTarget(cfg, target{id: cr.ID, base: base, created: true}, len(cr.Sensors))
		if err != nil {
			return nil, err
		}
		targets = append(targets, tg)
	}
	return targets, nil
}

// finishTarget attaches the fixed request payload to a resolved monitor.
// Readings are synthetic but finite and plausible (°C around a warm die);
// every request to one monitor carries the same body so the measured
// variance is the serving path's, not the workload's.
func finishTarget(cfg config, tg target, m int) (target, error) {
	tg.url = tg.base + "/v1/monitors/" + tg.id + "/" + cfg.Endpoint
	tg.contentType = "application/json"
	tg.perReq = cfg.Batch
	if m < 1 {
		return tg, fmt.Errorf("monitor %s reports %d sensors", tg.id, m)
	}
	tg.m = m
	readings := syntheticReadings(cfg.Batch, m, "")
	if cfg.Proto == "binary" {
		var frame []byte
		var err error
		if cfg.Endpoint == "govern" {
			frame, err = wire.AppendGovernRequest(nil, &wire.GovernRequest{Readings: readings})
		} else {
			frame, err = wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: readings})
		}
		tg.body, tg.contentType = frame, wire.ContentType
		return tg, err
	}
	body, err := json.Marshal(map[string]any{"readings": readings})
	tg.body = body
	return tg, err
}

// familyShape maps a workload family name onto the synthetic pattern's
// parameters (mean °C, amplitude, snapshot and sensor frequencies). The
// named families match the robustness harness's so a drift fault spec like
// drift:web->compute@30s reads naturally; unknown names get a distinct
// deterministic shape so any spelling produces a regime change.
func familyShape(family string) (mean, amp, fi, fj float64) {
	switch family {
	case "", "web":
		return 55, 8, 0.3, 0.7
	case "compute":
		return 72, 14, 0.5, 1.3
	case "idle":
		return 42, 3, 0.15, 0.4
	case "bursty":
		return 60, 16, 1.1, 0.5
	case "wave":
		return 58, 10, 0.25, 2.1
	case "dvfs":
		return 65, 12, 0.7, 0.9
	}
	h := 0
	for _, c := range family {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return 50 + float64(h%30), 6 + float64(h%9), 0.2 + float64(h%5)/10, 0.3 + float64(h%7)/10
}

// syntheticReadings builds one batch of finite, plausible sensor readings
// for the given workload family.
func syntheticReadings(batch, m int, family string) [][]float64 {
	mean, amp, fi, fj := familyShape(family)
	rows := make([][]float64, batch)
	for i := range rows {
		row := make([]float64, m)
		for j := range row {
			row[j] = mean + amp*math.Sin(fi*float64(i)+fj*float64(j))
		}
		rows[i] = row
	}
	return rows
}

// faultBody builds one corrupted request body: fresh synthetic readings for
// the workload family active at elapsed (drift faults switch it mid-run),
// run through the worker's injector.
func faultBody(cfg config, m int, inj *drift.Injector, elapsed time.Duration) ([]byte, string, error) {
	family := ""
	if f, ok := inj.Workload(elapsed); ok {
		family = f
	}
	rows := syntheticReadings(cfg.Batch, m, family)
	for _, row := range rows {
		inj.Apply(row)
	}
	if cfg.Proto == "binary" {
		var frame []byte
		var err error
		if cfg.Endpoint == "govern" {
			frame, err = wire.AppendGovernRequest(nil, &wire.GovernRequest{Readings: rows})
		} else {
			frame, err = wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: rows})
		}
		return frame, wire.ContentType, err
	}
	body, err := json.Marshal(map[string]any{"readings": rows})
	return body, "application/json", err
}

// installGovernor posts -govern-config plus one seed reading row to the
// monitor's govern route, so every subsequent bare-readings request (fixed
// or fault-generated) flows through an already-configured governor.
func installGovernor(client *http.Client, tg target, cfg config) error {
	var jcfg json.RawMessage
	if err := json.Unmarshal([]byte(cfg.GovernConfig), &jcfg); err != nil {
		return fmt.Errorf("-govern-config: %w", err)
	}
	row := syntheticReadings(1, tg.m, "")
	body, err := json.Marshal(map[string]any{"config": jcfg, "readings": row})
	if err != nil {
		return err
	}
	resp, err := client.Post(tg.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("install governor on %s: %w", tg.id, err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("install governor on %s: status %d: %s", tg.id, resp.StatusCode, blob)
	}
	return nil
}

// classifyQuality extracts the daemon's quality verdict from a response
// body prefix without parsing the whole document: the JSON protocol renders
// the quality field first, and the binary protocol carries it in the flags
// word right after the 16-byte envelope header. Responses without a verdict
// (older daemons, endpoints that predate the field) count as OK.
func classifyQuality(prefix []byte) wire.Quality {
	if len(prefix) >= 20 && (string(prefix[:4]) == "EMRS" || string(prefix[:4]) == "EMGS") {
		if string(prefix[:4]) == "EMRS" && binary.LittleEndian.Uint32(prefix[4:8]) < 2 {
			return wire.QualityOK // version 1 predates the flags word
		}
		switch q := wire.Quality(binary.LittleEndian.Uint32(prefix[16:20])); q {
		case wire.QualityDrifting, wire.QualityDegraded:
			return q
		}
		return wire.QualityOK
	}
	i := bytes.Index(prefix, []byte(`"quality":"`))
	if i < 0 {
		return wire.QualityOK
	}
	rest := prefix[i+len(`"quality":"`):]
	switch {
	case bytes.HasPrefix(rest, []byte("drifting")):
		return wire.QualityDrifting
	case bytes.HasPrefix(rest, []byte("degraded")):
		return wire.QualityDegraded
	}
	return wire.QualityOK
}

// summarizeLatencies reduces the latency population (seconds) to
// milliseconds percentiles via the nearest-rank method.
func summarizeLatencies(secs []float64) Latencies {
	if len(secs) == 0 {
		return Latencies{}
	}
	sorted := append([]float64(nil), secs...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	ms := func(s float64) float64 { return s * 1000 }
	return Latencies{
		Mean: ms(sum / float64(len(sorted))),
		P50:  ms(percentile(sorted, 50)),
		P90:  ms(percentile(sorted, 90)),
		P99:  ms(percentile(sorted, 99)),
		Max:  ms(sorted[len(sorted)-1]),
	}
}

// percentile returns the nearest-rank p-th percentile of sorted (ascending)
// values: the smallest value with at least p% of the population at or below
// it.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
