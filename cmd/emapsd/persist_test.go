package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// durableServer builds a server backed by dir, as `emapsd -store-dir dir`
// would; booting a second one on the same dir simulates a daemon restart.
func durableServer(t *testing.T, dir string) *server {
	t.Helper()
	srv := newServer(1024)
	if err := srv.openStore(dir); err != nil {
		t.Fatal(err)
	}
	return srv
}

func bodyString(t *testing.T, ts *httptest.Server, method, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

const estimateBody = `{"readings":[[62,61,60,59,58,57,56,55]],"include_maps":true}`

// TestWarmStartBitIdenticalEstimates is the acceptance pin: a daemon
// restarted on the same store serves byte-identical estimate responses for
// the monitor it warm-started, with zero retraining.
func TestWarmStartBitIdenticalEstimates(t *testing.T) {
	dir := t.TempDir()

	srv1 := durableServer(t, dir)
	ts1 := httptest.NewServer(srv1)
	cr := createMonitor(t, ts1, "")
	code, before := bodyString(t, ts1, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", estimateBody)
	if code != 200 {
		t.Fatalf("estimate before restart: %d %s", code, before)
	}
	if got := srv1.metrics.modelsTrained.Load(); got != 1 {
		t.Fatalf("first life trained %d models, want 1", got)
	}
	ts1.Close() // "kill" the daemon

	srv2 := durableServer(t, dir)
	loaded, skipped := srv2.warmStart()
	if loaded != 1 || skipped != 0 {
		t.Fatalf("warm start loaded=%d skipped=%d, want 1/0", loaded, skipped)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	code, after := bodyString(t, ts2, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", estimateBody)
	if code != 200 {
		t.Fatalf("estimate after restart: %d %s", code, after)
	}
	if before != after {
		t.Fatalf("estimates differ across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	if got := srv2.metrics.modelsTrained.Load(); got != 0 {
		t.Fatalf("warm-started daemon trained %d models, want 0", got)
	}
	if got := srv2.metrics.monitorsLoaded.Load(); got != 1 {
		t.Fatalf("monitors_loaded %d, want 1", got)
	}

	// The warm-started monitor shows up in the listing, and new monitors
	// get fresh ids beyond the restored ones.
	var list struct {
		Monitors []monitorInfo `json:"monitors"`
	}
	doJSON(t, ts2, http.MethodGet, "/v1/monitors", "", &list)
	if len(list.Monitors) != 1 || list.Monitors[0].ID != cr.ID {
		t.Fatalf("listing after warm start: %+v", list.Monitors)
	}
	cr2 := createMonitor(t, ts2, `,"k":3,"m":6`)
	if cr2.ID == cr.ID {
		t.Fatalf("id collision after warm start: %s", cr2.ID)
	}
	// Same training key: the re-seeded model cache must have served it
	// without retraining.
	if got := srv2.metrics.modelsTrained.Load(); got != 0 {
		t.Fatalf("create on warm model retrained (%d), want cache/store hit", got)
	}
}

// TestWarmStartTrackerReplay: tracking monitors rebuild their Kalman filter
// after a restart. Filter state is run-time state that restarts from its
// stationary prior, so the first track response after the restart is byte
// for byte the first one before it.
func TestWarmStartTrackerReplay(t *testing.T) {
	dir := t.TempDir()
	srv1 := durableServer(t, dir)
	ts1 := httptest.NewServer(srv1)
	cr := createMonitor(t, ts1, `,"tracking":true,"rho":0.9`)
	trackBody := `{"readings":[[62,61,60,59,58,57,56,55],[61,60,60,58,58,56,56,54]],"include_maps":true}`
	code, before := bodyString(t, ts1, http.MethodPost, "/v1/monitors/"+cr.ID+"/track", trackBody)
	if code != 200 {
		t.Fatalf("track before restart: %d %s", code, before)
	}
	ts1.Close()

	srv2 := durableServer(t, dir)
	if loaded, skipped := srv2.warmStart(); loaded != 1 || skipped != 0 {
		t.Fatalf("warm start loaded=%d skipped=%d", loaded, skipped)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	code, after := bodyString(t, ts2, http.MethodPost, "/v1/monitors/"+cr.ID+"/track", trackBody)
	if code != 200 {
		t.Fatalf("track after restart: %d %s", code, after)
	}
	if before != after {
		t.Fatalf("first track response differs across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	if got := srv2.metrics.modelsTrained.Load(); got != 0 {
		t.Fatalf("warm start retrained %d models, want 0", got)
	}
}

// TestEvictToDiskInsteadOf429: with a store, a full model cache evicts its
// LRU model (already persisted at training time) and the evicted key later
// reloads from disk without retraining. Without a store, the old 429
// contract holds (covered by TestDaemonModelCacheCap).
func TestEvictToDiskInsteadOf429(t *testing.T) {
	dir := t.TempDir()
	srv := durableServer(t, dir)
	srv.maxModels = 1
	ts := httptest.NewServer(srv)
	defer ts.Close()

	createMonitor(t, ts, "")           // key A fills the only slot
	createMonitor(t, ts, `,"seed":99`) // key B evicts A instead of 429
	if got := srv.metrics.modelsEvicted.Load(); got != 1 {
		t.Fatalf("evictions %d, want 1", got)
	}
	if got := srv.metrics.modelsTrained.Load(); got != 2 {
		t.Fatalf("trained %d, want 2", got)
	}
	createMonitor(t, ts, "") // key A again: reloaded from disk, evicting B
	if got := srv.metrics.modelsTrained.Load(); got != 2 {
		t.Fatalf("re-create after eviction retrained (total %d), want store load", got)
	}
	if got := srv.metrics.modelsLoaded.Load(); got != 1 {
		t.Fatalf("store loads %d, want 1", got)
	}
}

// TestWarmStartSkipsCorruptRecords: damaged or alien files in the store
// directory are logged and skipped; intact records still load.
func TestWarmStartSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	srv1 := durableServer(t, dir)
	ts1 := httptest.NewServer(srv1)
	cr := createMonitor(t, ts1, "")
	ts1.Close()

	// Corrupt a copy of the good record under another monitor id, and drop
	// in pure garbage under a third.
	good, err := os.ReadFile(filepath.Join(dir, cr.ID+monitorSuffix))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x20
	if err := os.WriteFile(filepath.Join(dir, "mon-7"+monitorSuffix), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "mon-8"+monitorSuffix), []byte("not a store file"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := durableServer(t, dir)
	loaded, skipped := srv2.warmStart()
	if loaded != 1 || skipped != 2 {
		t.Fatalf("warm start loaded=%d skipped=%d, want 1/2", loaded, skipped)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	code, _ := bodyString(t, ts2, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", estimateBody)
	if code != 200 {
		t.Fatalf("good record did not survive corrupt neighbors: %d", code)
	}
}

// TestDeleteRemovesStoreFile: retiring a monitor removes its record, so a
// restart does not resurrect it.
func TestDeleteRemovesStoreFile(t *testing.T) {
	dir := t.TempDir()
	srv := durableServer(t, dir)
	ts := httptest.NewServer(srv)
	cr := createMonitor(t, ts, "")
	path := filepath.Join(dir, cr.ID+monitorSuffix)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("monitor record not persisted: %v", err)
	}
	if code, b := bodyString(t, ts, http.MethodDelete, "/v1/monitors/"+cr.ID, ""); code != 200 {
		t.Fatalf("delete: %d %s", code, b)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("record survives delete: %v", err)
	}
	ts.Close()
	srv2 := durableServer(t, dir)
	if loaded, _ := srv2.warmStart(); loaded != 0 {
		t.Fatalf("deleted monitor resurrected (%d loaded)", loaded)
	}
}

// TestMetricsEndpoint: the Prometheus exposition carries the serving
// counters and per-route series.
func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(64)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	if code, _ := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", estimateBody); code != 200 {
		t.Fatal("estimate failed")
	}
	code, text := bodyString(t, ts, http.MethodGet, "/metrics", "")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		`emapsd_requests_total{route="create",code="201"} 1`,
		`emapsd_requests_total{route="estimate",code="200"} 1`,
		`emapsd_request_duration_seconds_count{route="estimate"} 1`,
		`emapsd_request_duration_seconds_bucket{route="estimate",le="+Inf"} 1`,
		"emapsd_models_trained_total 1",
		"emapsd_model_cache_misses_total 1",
		"emapsd_snapshots_total 1",
		"emapsd_models 1",
		"emapsd_monitors 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// A second create with the same key is a cache hit.
	createMonitor(t, ts, "")
	_, text = bodyString(t, ts, http.MethodGet, "/metrics", "")
	if !strings.Contains(text, "emapsd_model_cache_hits_total 1") {
		t.Errorf("cache hit not counted:\n%s", text)
	}
}

// TestStructuredRequestLog: with a logger attached, each request emits one
// JSON line with method/route/status/duration.
func TestStructuredRequestLog(t *testing.T) {
	srv := newServer(64)
	var buf bytes.Buffer
	var mu sync.Mutex
	srv.logger = slog.New(slog.NewJSONHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code, _ := bodyString(t, ts, http.MethodGet, "/healthz", ""); code != 200 {
		t.Fatal("healthz failed")
	}
	mu.Lock()
	line := buf.String()
	mu.Unlock()
	var entry map[string]any
	if err := json.Unmarshal([]byte(strings.Split(strings.TrimSpace(line), "\n")[0]), &entry); err != nil {
		t.Fatalf("log line is not JSON: %q (%v)", line, err)
	}
	if entry["route"] != "healthz" || entry["method"] != "GET" || entry["status"] != float64(200) {
		t.Fatalf("log entry %v", entry)
	}
	if _, ok := entry["dur_ms"].(float64); !ok {
		t.Fatalf("log entry missing dur_ms: %v", entry)
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestGracefulShutdownDrains: a request accepted before Shutdown completes
// with a 200; Shutdown returns only after it has.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := newServer(64)
	ts := httptest.NewServer(srv)
	cr := createMonitor(t, ts, "")
	ts.Close()

	inFlight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	gate := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(inFlight); <-release })
		srv.ServeHTTP(w, r)
	})
	hs := httptest.NewServer(gate)

	type result struct {
		code int
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/monitors/"+cr.ID+"/estimate", "application/json",
			strings.NewReader(estimateBody))
		if err != nil {
			resCh <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resCh <- result{resp.StatusCode, nil}
	}()
	<-inFlight

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- hs.Config.Shutdown(ctx)
	}()
	// The request is mid-handler: shutdown must wait for it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	res := <-resCh
	if res.err != nil || res.code != 200 {
		t.Fatalf("in-flight request: code=%d err=%v", res.code, res.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestWarmStartManyMonitors exercises id renumbering and model-cache
// seeding with several persisted monitors over two training keys.
func TestWarmStartManyMonitors(t *testing.T) {
	dir := t.TempDir()
	srv1 := durableServer(t, dir)
	ts1 := httptest.NewServer(srv1)
	var ids []string
	for i := 0; i < 3; i++ {
		extra := ""
		if i == 2 {
			extra = `,"seed":42`
		}
		ids = append(ids, createMonitor(t, ts1, extra).ID)
	}
	ts1.Close()

	srv2 := durableServer(t, dir)
	if loaded, skipped := srv2.warmStart(); loaded != 3 || skipped != 0 {
		t.Fatalf("warm start loaded=%d skipped=%d", loaded, skipped)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	for _, id := range ids {
		if code, b := bodyString(t, ts2, http.MethodPost, "/v1/monitors/"+id+"/estimate", estimateBody); code != 200 {
			t.Fatalf("monitor %s after warm start: %d %s", id, code, b)
		}
	}
	// Model-cache seeding is lazy now: paging a monitor in seeds its key, so
	// after touching all three monitors both training keys are resident.
	srv2.mu.Lock()
	models := len(srv2.models)
	srv2.mu.Unlock()
	if models != 2 {
		t.Fatalf("model cache seeded with %d entries after estimates, want 2", models)
	}
	cr := createMonitor(t, ts2, `,"k":2,"m":4`)
	if cr.ID != fmt.Sprintf("mon-%d", len(ids)+1) {
		t.Fatalf("next id after warm start: %s", cr.ID)
	}
}

// TestCreatePersistFailureIsRefused: a durable create whose monitor record
// cannot be written answers 500 persist_failed and publishes nothing, so
// the refused monitor is absent from the listing before and after a
// restart, while the next create is acknowledged as usual.
func TestCreatePersistFailureIsRefused(t *testing.T) {
	dir := t.TempDir()
	// A directory where mon-1's record goes makes its rename fail.
	if err := os.Mkdir(filepath.Join(dir, "mon-1"+monitorSuffix), 0o755); err != nil {
		t.Fatal(err)
	}
	listIDs := func(ts *httptest.Server) []string {
		var list struct {
			Monitors []monitorInfo `json:"monitors"`
		}
		doJSON(t, ts, http.MethodGet, "/v1/monitors", "", &list)
		var ids []string
		for _, m := range list.Monitors {
			ids = append(ids, m.ID)
		}
		return ids
	}

	ts1 := httptest.NewServer(durableServer(t, dir))
	var env errEnvelope
	resp := doJSON(t, ts1, http.MethodPost, "/v1/monitors", fmt.Sprintf(createBody, ""), &env)
	if resp.StatusCode != http.StatusInternalServerError || env.Error.Code != "persist_failed" {
		t.Fatalf("create onto an unwritable record: status %d code %q, want 500 persist_failed", resp.StatusCode, env.Error.Code)
	}
	if ids := listIDs(ts1); len(ids) != 0 {
		t.Fatalf("refused monitor listed: %v", ids)
	}
	cr := createMonitor(t, ts1, "")
	ts1.Close()

	srv2 := durableServer(t, dir)
	srv2.warmStart()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if ids := listIDs(ts2); len(ids) != 1 || ids[0] != cr.ID {
		t.Fatalf("listing after restart: %v, want only %s", ids, cr.ID)
	}
}
