package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// estimatePayload builds a {"readings":[...]} body with `batch` rows of m
// sensor readings.
func estimatePayload(m, batch int) string {
	readings := make([][]float64, batch)
	for i := range readings {
		row := make([]float64, m)
		for j := range row {
			row[j] = 50 + float64(i+j)
		}
		readings[i] = row
	}
	body, _ := json.Marshal(map[string]any{"readings": readings})
	return string(body)
}

// syncBuffer makes a bytes-like buffer safe to share between the test
// goroutine and the handler goroutines that write log lines into it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// debugResponse mirrors the GET /v1/debug/requests body.
type debugResponse struct {
	Recent  []debugTrace `json:"recent"`
	Slowest []debugTrace `json:"slowest"`
}

// A live scrape taken under mixed traffic must pass the exposition lint —
// the same checker CI runs via cmd/promlint — and the stage histograms
// introduced by the flight recorder must actually have observations.
func TestMetricsExpositionLint(t *testing.T) {
	srv := newServer(1024)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cr := createMonitor(t, ts, "")
	payload := estimatePayload(cr.M, 8)
	for i := 0; i < 5; i++ {
		if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", payload, nil); resp.StatusCode != 200 {
			t.Fatalf("estimate status %d", resp.StatusCode)
		}
	}
	// An error and an unversioned (404) request so multiple route labels
	// and status codes appear in the exposition.
	doJSON(t, ts, http.MethodPost, "/v1/monitors/nope/estimate", payload, nil)
	doJSON(t, ts, http.MethodGet, "/monitors", "", nil)

	body := metricsBody(t, ts, "/metrics")
	if errs := obs.Lint(strings.NewReader(body)); len(errs) > 0 {
		t.Fatalf("exposition lint: %d problems:\n%s", len(errs), strings.Join(errs, "\n"))
	}
	for _, stage := range []string{"decode", "solve", "encode"} {
		name := fmt.Sprintf(`emapsd_stage_duration_seconds_count{stage=%q}`, stage)
		if v := counterValue(t, body, name); v == 0 {
			t.Fatalf("%s = 0, want > 0 after estimate traffic", name)
		}
	}
	for _, gauge := range []string{
		"emapsd_goroutines ",
		"emapsd_heap_alloc_bytes ",
		"emapsd_gc_pause_seconds_total ",
		"emapsd_gc_cycles_total ",
		"emapsd_file_opens_total ",
	} {
		if !strings.Contains(body, "\n"+gauge) {
			t.Fatalf("scrape missing runtime gauge %q", strings.TrimSpace(gauge))
		}
	}
}

// One request id, four surfaces: the response header echo, the error
// envelope, the request log line, and the flight-recorder trace.
func TestRequestIDRoundTrip(t *testing.T) {
	var logBuf syncBuffer
	srv := newServer(1024)
	srv.logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cr := createMonitor(t, ts, "")
	payload := estimatePayload(cr.M, 4)

	// Client-chosen id on a success: echoed in the header, logged, traced.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/monitors/"+cr.ID+"/estimate", strings.NewReader(payload))
	req.Header.Set(wire.HeaderRequestID, "rid-roundtrip-1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(wire.HeaderRequestID); got != "rid-roundtrip-1" {
		t.Fatalf("response header id = %q, want rid-roundtrip-1", got)
	}
	if st := resp.Header.Get(wire.HeaderServerTiming); !strings.Contains(st, "solve;dur=") {
		t.Fatalf("Server-Timing %q missing solve stage", st)
	}

	// Server-Timing is opt-in: an anonymous request still gets a generated
	// id but no per-response timing header.
	resp, err = ts.Client().Post(ts.URL+"/v1/monitors/"+cr.ID+"/estimate", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(wire.HeaderRequestID); got == "" {
		t.Fatal("anonymous request missing generated X-Request-Id")
	}
	if st := resp.Header.Get(wire.HeaderServerTiming); st != "" {
		t.Fatalf("anonymous request got Server-Timing %q, want none", st)
	}

	// Client-chosen id on a failure: carried inside the error envelope.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/monitors/nope/estimate", strings.NewReader(payload))
	req.Header.Set(wire.HeaderRequestID, "rid-roundtrip-err")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env errEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || env.Error.RequestID != "rid-roundtrip-err" {
		t.Fatalf("error envelope: status %d, request_id %q", resp.StatusCode, env.Error.RequestID)
	}

	// No client id: the daemon generates one and still echoes it.
	resp = doJSON(t, ts, http.MethodGet, "/healthz", "", nil)
	if resp.Header.Get(wire.HeaderRequestID) == "" {
		t.Fatal("generated request id missing from response header")
	}

	// Oversized ids are truncated before they reach logs and traces.
	long := strings.Repeat("x", 400)
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(wire.HeaderRequestID, long)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(wire.HeaderRequestID); len(got) != 128 || got != long[:128] {
		t.Fatalf("oversized id echoed as %d bytes, want 128", len(got))
	}

	// The flight recorder kept the traced id.
	var dbg debugResponse
	if resp := doJSON(t, ts, http.MethodGet, "/v1/debug/requests?route=estimate&n=64", "", &dbg); resp.StatusCode != 200 {
		t.Fatalf("debug status %d", resp.StatusCode)
	}
	found := false
	for _, tr := range dbg.Recent {
		if tr.ID == "rid-roundtrip-1" {
			found = true
			if tr.Route != "estimate" || tr.Status != 200 || len(tr.Stages) == 0 {
				t.Fatalf("trace malformed: %+v", tr)
			}
		}
	}
	if !found {
		t.Fatalf("rid-roundtrip-1 not in debug recent traces (%d traces)", len(dbg.Recent))
	}

	// Both ids made it into the structured request log.
	logs := logBuf.String()
	for _, want := range []string{`"request_id":"rid-roundtrip-1"`, `"request_id":"rid-roundtrip-err"`} {
		if !strings.Contains(logs, want) {
			t.Fatalf("request log missing %s:\n%s", want, logs)
		}
	}
}

// The flight-recorder waterfall must attribute the request's wall time to
// stages: every estimate trace records the full decode → solve → encode
// chain, and at a compute-heavy batch size the median attributed share is
// at least 90% of the measured wall time (the acceptance pin).
func TestDebugRequestsWaterfall(t *testing.T) {
	srv := newServer(1024)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cr := createMonitor(t, ts, "")
	payload := estimatePayload(cr.M, 64)
	for i := 0; i < 12; i++ {
		if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", payload, nil); resp.StatusCode != 200 {
			t.Fatalf("estimate status %d", resp.StatusCode)
		}
	}

	// The daemon rings a trace only after the handler has flushed its
	// response, so the twelfth may land after this client has read it:
	// poll until all twelve are listed.
	var dbg debugResponse
	for deadline := time.Now().Add(5 * time.Second); ; {
		dbg = debugResponse{}
		if resp := doJSON(t, ts, http.MethodGet, "/v1/debug/requests?route=estimate&n=64", "", &dbg); resp.StatusCode != 200 {
			t.Fatalf("debug status %d", resp.StatusCode)
		}
		if len(dbg.Recent) >= 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("debug lists: recent=%d after 5s, want 12", len(dbg.Recent))
		}
	}
	if len(dbg.Slowest) == 0 {
		t.Fatalf("debug lists: recent=%d slowest=%d", len(dbg.Recent), len(dbg.Slowest))
	}
	for _, tr := range dbg.Slowest {
		if len(tr.Stages) < 4 {
			t.Fatalf("slowest trace %s has %d stages, want >= 4: %+v", tr.ID, len(tr.Stages), tr.Stages)
		}
	}
	var ratios []float64
	for _, tr := range dbg.Recent {
		if tr.Status != 200 || tr.DurMS <= 0 {
			continue
		}
		if len(tr.Stages) < 4 {
			t.Fatalf("trace %s has %d stages, want >= 4", tr.ID, len(tr.Stages))
		}
		ratios = append(ratios, tr.StageMSTotal/tr.DurMS)
	}
	if len(ratios) < 12 {
		t.Fatalf("only %d usable estimate traces", len(ratios))
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if median > 1.01 {
		t.Fatalf("median attributed share %.3f > 1: stage accounting double-counts", median)
	}
	if raceEnabled {
		t.Logf("median attributed share %.3f (pin skipped under -race)", median)
		return
	}
	if median < 0.9 {
		t.Fatalf("median attributed share %.3f < 0.90: waterfall loses wall time", median)
	}

	// A traced track request: its render and body write are the encode
	// stage, as on estimate, not a tail of the drift span.
	tracked := createMonitor(t, ts, `,"tracking":true`)
	const rid = "rid-track-waterfall"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/monitors/"+tracked.ID+"/track",
		strings.NewReader(estimatePayload(tracked.M, 64)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(wire.HeaderRequestID, rid)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("track status %d", resp.StatusCode)
	}
	var trackTrace *debugTrace
	for deadline := time.Now().Add(5 * time.Second); trackTrace == nil; {
		dbg = debugResponse{}
		doJSON(t, ts, http.MethodGet, "/v1/debug/requests?route=track", "", &dbg)
		for i := range dbg.Recent {
			if dbg.Recent[i].ID == rid {
				trackTrace = &dbg.Recent[i]
			}
		}
		if trackTrace == nil && time.Now().After(deadline) {
			t.Fatalf("track trace %s not in the flight recorder after 5s", rid)
		}
	}
	var stages []string
	for _, st := range trackTrace.Stages {
		stages = append(stages, st.Stage)
	}
	got := strings.Join(stages, ",")
	if !strings.HasPrefix(got, "decode,solve,") || !strings.HasSuffix(got, ",encode") {
		t.Fatalf("track waterfall stages %s, want decode, solve, then drift stages and encode last", got)
	}
}

// flushRecorder counts Flush calls reaching the underlying writer.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// statusWriter must pass http.Flusher through to the wrapped writer — and
// stay safe when the underlying writer cannot flush.
func TestStatusWriterFlusher(t *testing.T) {
	under := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	sw := &statusWriter{ResponseWriter: under, status: http.StatusOK}
	var w http.ResponseWriter = sw
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	f.Flush()
	if under.flushes != 1 {
		t.Fatalf("flushes = %d, want 1", under.flushes)
	}
	if !sw.wroteHeader || under.Code != http.StatusOK {
		t.Fatalf("Flush must commit the header first: wrote=%v code=%d", sw.wroteHeader, under.Code)
	}

	// A non-flushing underlying writer: Flush is a silent no-op, no panic,
	// and no header commit (nothing was flushed).
	type bare struct{ http.ResponseWriter }
	sw = &statusWriter{ResponseWriter: bare{httptest.NewRecorder()}, status: http.StatusOK}
	sw.Flush()
	if sw.wroteHeader {
		t.Fatal("no-op Flush must not commit the header")
	}
}

// -log-sample N keeps 1 in N request lines and never drops errors.
func TestLogSampling(t *testing.T) {
	srv := newServer(4)
	srv.logEvery = 10
	logged := 0
	for i := 0; i < 100; i++ {
		if srv.shouldLog(200) {
			logged++
		}
	}
	if logged != 10 {
		t.Fatalf("sampled %d of 100 at logEvery=10, want 10", logged)
	}
	for i := 0; i < 20; i++ {
		if !srv.shouldLog(500) || !srv.shouldLog(404) {
			t.Fatal("errors must always be logged")
		}
	}
	srv.logEvery = 1
	for i := 0; i < 5; i++ {
		if !srv.shouldLog(200) {
			t.Fatal("logEvery=1 must log everything")
		}
	}

	// End to end: a sampling server emits 1-in-5 request lines plus every
	// error line.
	var logBuf syncBuffer
	srv2 := newServer(4)
	srv2.logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	srv2.logEvery = 5
	ts := httptest.NewServer(srv2)
	defer ts.Close()
	for i := 0; i < 10; i++ {
		doJSON(t, ts, http.MethodGet, "/healthz", "", nil)
	}
	doJSON(t, ts, http.MethodGet, "/v1/monitors/nope", "", nil)
	lines := strings.Count(logBuf.String(), `"msg":"request"`)
	if lines != 3 { // 2 sampled healthz + 1 error
		t.Fatalf("logged %d request lines, want 3:\n%s", lines, logBuf.String())
	}
}

// The acceptance pin for the tentpole: the instrumented serving path stays
// within 3% of the stripped arm. The arms alternate per request over the
// same in-process server (anonymous requests — the hot path; Server-Timing
// is opt-in via X-Request-Id and priced separately), and the statistic is
// the median of per-pair differences, so machine noise that drifts across
// the run hits both halves of every pair equally.
func TestInstrumentationOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing pin is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing-sensitive A/B benchmark")
	}
	srv := newServer(1024)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	payload := estimatePayload(cr.M, 16)
	path := "/v1/monitors/" + cr.ID + "/estimate"

	one := func(stripped bool) time.Duration {
		srv.noTrace = stripped
		start := time.Now()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(payload))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		return time.Since(start)
	}

	// Warm-up: fill pools, train the branch predictors, and ratchet the
	// flight recorder's slowest-list floor so steady-state inserts are rare
	// in the measured pairs (as they are in production).
	for i := 0; i < 300; i++ {
		one(false)
		one(true)
	}

	// This host's wall clock drifts by double-digit percentages over tens
	// of milliseconds (virtualized CPU, frequency steps), so no statistic
	// over per-arm aggregates can resolve a 3% differential. Instead the
	// arms are interleaved per request: each pair runs back to back within
	// ~30µs, so drift cancels inside the pair, and the median of the pair
	// differences discards the requests a GC cycle or scheduler tick
	// landed on. Alternating which arm goes first flips any residual
	// second-runs-warmer bias sign to sign; the median sits between.
	const pairs = 4000
	runtime.GC()
	diffs := make([]float64, 0, pairs)
	strips := make([]float64, 0, pairs)
	for p := 0; p < pairs; p++ {
		var ti, ts time.Duration
		if p%2 == 0 {
			ti = one(false)
			ts = one(true)
		} else {
			ts = one(true)
			ti = one(false)
		}
		diffs = append(diffs, float64(ti-ts))
		strips = append(strips, float64(ts))
	}
	sort.Float64s(diffs)
	sort.Float64s(strips)
	ratio := 1 + diffs[pairs/2]/strips[pairs/2]
	t.Logf("median pair diff %.0fns on a %.0fns stripped request: ratio %.4f",
		diffs[pairs/2], strips[pairs/2], ratio)
	if ratio > 1.03 {
		t.Fatalf("instrumentation overhead %.1f%% exceeds the 3%% budget (median pair diff %.0fns vs stripped median %.0fns over %d interleaved pairs)",
			(ratio-1)*100, diffs[pairs/2], strips[pairs/2], pairs)
	}
}
