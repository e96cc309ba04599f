package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
)

// tiny training config so tests stay fast; the same key is reused across
// tests to exercise the model cache.
const createBody = `{"floorplan":"t1","grid_w":12,"grid_h":10,"snapshots":80,"seed":3,"kmax":8,"k":4,"m":8%s}`

// errEnvelope mirrors the uniform error body every failure is written as.
type errEnvelope struct {
	Error errorBody `json:"error"`
}

func doJSON(t *testing.T, ts *httptest.Server, method, path string, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp
}

func createMonitor(t *testing.T, ts *httptest.Server, extra string) createResponse {
	t.Helper()
	var cr createResponse
	resp := doJSON(t, ts, http.MethodPost, "/v1/monitors", fmt.Sprintf(createBody, extra), &cr)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d (%+v)", resp.StatusCode, cr)
	}
	return cr
}

func TestDaemonEndToEnd(t *testing.T) {
	ts := httptest.NewServer(newServer(1024))
	defer ts.Close()

	var health map[string]string
	if resp := doJSON(t, ts, http.MethodGet, "/healthz", "", &health); resp.StatusCode != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: %v %v", resp.StatusCode, health)
	}

	cr := createMonitor(t, ts, "")
	if cr.K != 4 || cr.M != 8 || len(cr.Sensors) != 8 || cr.N != 120 {
		t.Fatalf("create response %+v", cr)
	}

	// Estimate a batch built from constant readings (valid shape).
	readings := make([][]float64, 6)
	for i := range readings {
		readings[i] = make([]float64, cr.M)
		for j := range readings[i] {
			readings[i][j] = 45 + float64(i)
		}
	}
	body, _ := json.Marshal(map[string]any{"readings": readings, "include_maps": true})
	var est struct {
		Results []snapshotSummary `json:"results"`
	}
	if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", string(body), &est); resp.StatusCode != 200 {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}
	if len(est.Results) != len(readings) {
		t.Fatalf("estimate returned %d results", len(est.Results))
	}
	for i, r := range est.Results {
		if len(r.Map) != cr.N || math.IsNaN(r.MaxC) || r.MaxC < r.MinC {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
	}

	// The simulate evaluation route is gone: cross-scenario evaluation runs
	// offline (experiments -figs robust).
	var env errEnvelope
	if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/simulate",
		`{"count":8,"snr_db":20,"seed":9}`, &env); resp.StatusCode != http.StatusNotFound || env.Error.Code != "not_found" {
		t.Fatalf("simulate: status %d (%+v), want 404 not_found", resp.StatusCode, env)
	}

	// Stats reflect the served snapshots.
	var stats struct {
		Requests  int64 `json:"requests"`
		Snapshots int64 `json:"snapshots"`
		Monitors  int   `json:"monitors"`
	}
	doJSON(t, ts, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Snapshots != int64(len(readings)) || stats.Monitors != 1 {
		t.Fatalf("stats %+v", stats)
	}

	// Delete and verify the monitor is gone.
	if resp := doJSON(t, ts, http.MethodDelete, "/v1/monitors/"+cr.ID, "", nil); resp.StatusCode != 200 {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", string(body), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("estimate after delete: status %d", resp.StatusCode)
	}
}

func TestDaemonRejectsDegenerateRequests(t *testing.T) {
	ts := httptest.NewServer(newServer(64))
	defer ts.Close()
	cr := createMonitor(t, ts, "")

	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"M<K", "/v1/monitors", fmt.Sprintf(createBody, `,"sensors":[1,2,3]`), 400},
		{"duplicate sensors", "/v1/monitors", fmt.Sprintf(createBody, `,"sensors":[1,2,3,3,5]`), 400},
		{"out-of-range sensor", "/v1/monitors", fmt.Sprintf(createBody, `,"sensors":[1,2,3,99999]`), 400},
		{"bad floorplan", "/v1/monitors", `{"floorplan":"pentium"}`, 400},
		{"bad strategy", "/v1/monitors", fmt.Sprintf(createBody, `,"strategy":"psychic"`), 400},
		{"wrong length", "/v1/monitors/" + cr.ID + "/estimate",
			`{"readings":[[45,45]]}`, 400},
		{"empty batch", "/v1/monitors/" + cr.ID + "/estimate", `{"readings":[]}`, 400},
		{"oversized batch", "/v1/monitors/" + cr.ID + "/estimate",
			func() string {
				big := make([][]float64, 65)
				for i := range big {
					big[i] = make([]float64, 8)
				}
				b, _ := json.Marshal(map[string]any{"readings": big})
				return string(b)
			}(), 400},
		{"track without tracker", "/v1/monitors/" + cr.ID + "/track",
			`{"readings":[[45,45,45,45,45,45,45,45]]}`, 400},
		{"unknown monitor", "/v1/monitors/mon-999/estimate", `{"readings":[[1]]}`, 404},
	}
	for _, tc := range cases {
		var body map[string]any
		resp := doJSON(t, ts, http.MethodPost, tc.path, tc.body, &body)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.wantStatus, body)
		}
	}
}

// TestDaemonRejectsNaNJSON covers the JSON path where NaN arrives as a quoted
// token Go's decoder refuses — and the numeric Inf-via-huge-exponent path
// that decodes fine and must be caught by the reconstruction layer.
func TestDaemonRejectsNaNJSON(t *testing.T) {
	ts := httptest.NewServer(newServer(64))
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	var body map[string]any
	resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate",
		`{"readings":[[45,45,45,45,45,45,45,1e999]]}`, &body)
	if resp.StatusCode != 400 {
		t.Fatalf("Inf reading: status %d (%v)", resp.StatusCode, body)
	}
}

func TestDaemonModelCacheCap(t *testing.T) {
	srv := newServer(64)
	srv.maxModels = 1
	ts := httptest.NewServer(srv)
	defer ts.Close()
	createMonitor(t, ts, "") // fills the single cache slot
	var body errEnvelope
	resp := doJSON(t, ts, http.MethodPost, "/v1/monitors",
		fmt.Sprintf(createBody, `,"seed":99`), &body)
	if resp.StatusCode != http.StatusTooManyRequests || body.Error.Code != "cache_full" {
		t.Fatalf("over-cap create: status %d (%+v)", resp.StatusCode, body)
	}
	// The cached configuration still works.
	createMonitor(t, ts, "")
}

// TestDaemonMalformedCreateLeavesCacheClean replays creates that used to
// poison the model cache: a negative grid panicked inside the cache entry's
// training once (the client saw a dropped connection, the retry panicked on
// a nil model, and the never-ready entry could not be evicted), and a
// 20000×20000 grid asked for ~480 GB, a fatal out-of-memory error. Both
// must answer with the 400 envelope, twice, and leave no cache entry, so a
// valid create still fits into a two-model cache afterwards.
func TestDaemonMalformedCreateLeavesCacheClean(t *testing.T) {
	srv := newServer(64)
	srv.maxModels = 2
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, grid := range []string{`"grid_w":-3,"grid_h":-5`, `"grid_w":20000,"grid_h":20000`} {
		body := fmt.Sprintf(`{"floorplan":"t1",%s,"snapshots":80,"seed":3,"kmax":8,"k":4,"m":8}`, grid)
		for attempt := 0; attempt < 2; attempt++ {
			var env errEnvelope
			resp := doJSON(t, ts, http.MethodPost, "/v1/monitors", body, &env)
			if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "train_failed" {
				t.Fatalf("%s attempt %d: status %d (%+v), want 400 train_failed", grid, attempt, resp.StatusCode, env)
			}
		}
	}
	srv.mu.Lock()
	models := len(srv.models)
	srv.mu.Unlock()
	if models != 0 {
		t.Fatalf("%d model-cache entries left behind by failed creates", models)
	}
	createMonitor(t, ts, "")
}

func TestDaemonMultiplexesMonitorsConcurrently(t *testing.T) {
	// Two floorplans, three K/M configurations each, hammered from parallel
	// clients: the cross-floorplan + noisy-monitoring scenarios concurrently.
	ts := httptest.NewServer(newServer(1024))
	defer ts.Close()

	type spec struct{ extra string }
	specs := []spec{
		{``},
		{`,"tracking":true`},
		{`,"strategy":"energy"`},
	}
	var ids []string
	var kfIDs []string
	for _, fp := range []string{"t1", "athlon"} {
		for _, sp := range specs {
			body := fmt.Sprintf(`{"floorplan":%q,"grid_w":12,"grid_h":10,"snapshots":80,"seed":3,"kmax":8,"k":4,"m":8%s}`, fp, sp.extra)
			var cr createResponse
			resp := doJSON(t, ts, http.MethodPost, "/v1/monitors", body, &cr)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("create %s%s: status %d", fp, sp.extra, resp.StatusCode)
			}
			ids = append(ids, cr.ID)
			if sp.extra == `,"tracking":true` {
				kfIDs = append(kfIDs, cr.ID)
			}
		}
	}

	// Every monitor takes estimates from four concurrent clients, and the
	// tracked ones take track batches too, so the -race run covers
	// cross-monitor serving.
	tracked := make(map[string]bool, len(kfIDs))
	for _, id := range kfIDs {
		tracked[id] = true
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(ids)*8)
	post := func(id, action string, c int) {
		readings := make([][]float64, 12)
		for i := range readings {
			readings[i] = make([]float64, 8)
			for j := range readings[i] {
				readings[i][j] = 44 + float64(c) + 0.5*float64(i+j)
			}
		}
		body, _ := json.Marshal(map[string]any{"readings": readings, "workers": 2})
		resp, err := ts.Client().Post(ts.URL+"/v1/monitors/"+id+"/"+action, "application/json", bytes.NewReader(body))
		if err != nil {
			errCh <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			errCh <- fmt.Errorf("%s %s: status %d", id, action, resp.StatusCode)
			return
		}
		var out struct {
			Results []snapshotSummary `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			errCh <- err
			return
		}
		if len(out.Results) != len(readings) {
			errCh <- fmt.Errorf("%s %s: %d results for %d readings", id, action, len(out.Results), len(readings))
			return
		}
		for _, r := range out.Results {
			if math.IsNaN(r.MeanC) || r.MaxC < r.MinC {
				errCh <- fmt.Errorf("%s %s: malformed result %+v", id, action, r)
				return
			}
		}
	}
	for _, id := range ids {
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(id string, c int) {
				defer wg.Done()
				post(id, "estimate", c)
				if tracked[id] {
					post(id, "track", c)
				}
			}(id, c)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Tracked monitors also smooth batches through their Kalman filter.
	for _, id := range kfIDs {
		readings := make([][]float64, 5)
		for i := range readings {
			readings[i] = make([]float64, 8)
			for j := range readings[i] {
				readings[i][j] = 44 + float64(i)
			}
		}
		body, _ := json.Marshal(map[string]any{"readings": readings})
		var tr struct {
			Results     []snapshotSummary `json:"results"`
			Steps       int               `json:"steps"`
			Uncertainty float64           `json:"uncertainty"`
		}
		if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+id+"/track", string(body), &tr); resp.StatusCode != 200 {
			t.Fatalf("track %s: status %d", id, resp.StatusCode)
		}
		if len(tr.Results) != 5 || tr.Steps < 5 || tr.Uncertainty <= 0 {
			t.Fatalf("track %s: %+v", id, tr)
		}
	}

	// The model cache collapsed the six monitors onto two trained models.
	var stats struct {
		Models   int `json:"models"`
		Monitors int `json:"monitors"`
	}
	doJSON(t, ts, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Models != 2 || stats.Monitors != 6 {
		t.Fatalf("stats %+v (want 2 models, 6 monitors)", stats)
	}
}

// TestCreateSimSolverOptions pins the retired simulation knobs: a create
// carrying sim_solver or sim_workers is accepted with the fields ignored,
// like any unknown field, and shares the model-cache entry of a create
// without them. Degenerate generation configs still answer 400.
func TestCreateSimSolverOptions(t *testing.T) {
	ts := httptest.NewServer(newServer(64))
	defer ts.Close()

	a := createMonitor(t, ts, `,"sim_solver":"cg","sim_workers":2`)
	b := createMonitor(t, ts, "")
	if fmt.Sprint(a.Sensors) != fmt.Sprint(b.Sensors) {
		t.Fatalf("sensors %v with retired fields, %v without", a.Sensors, b.Sensors)
	}
	var stats struct {
		Models int `json:"models"`
	}
	doJSON(t, ts, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Models != 1 {
		t.Fatalf("%d models, want 1 shared by both creates", stats.Models)
	}

	// Degenerate generation config surfaces as a 400, not a panic.
	var out errEnvelope
	if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors",
		`{"floorplan":"t1","grid_w":12,"grid_h":10,"snapshots":2,"seed":3,"kmax":8,"k":4,"m":8}`, &out); resp.StatusCode != 400 {
		t.Fatalf("too-few snapshots: status %d (%+v)", resp.StatusCode, out)
	}
}

func TestCreateWorkloadOptions(t *testing.T) {
	ts := httptest.NewServer(newServer(64))
	defer ts.Close()

	// Registry names select the training mix.
	var cr createResponse
	resp := doJSON(t, ts, http.MethodPost, "/v1/monitors",
		`{"grid_w":10,"grid_h":8,"snapshots":24,"kmax":6,"k":4,"workloads":["bursty","web"]}`, &cr)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("workloads create: status %d (%+v)", resp.StatusCode, cr)
	}

	// An inline declarative spec is accepted as an extra segment.
	spec := `{"name":"custom","phases":[{"rates":{"idle_to_busy":0.2,"busy_to_idle":0.1,"busy_to_fpu":0.05,"fpu_to_busy":0.2}}],"migration":{"period":15}}`
	resp = doJSON(t, ts, http.MethodPost, "/v1/monitors",
		`{"grid_w":10,"grid_h":8,"snapshots":24,"kmax":6,"k":4,"workload_spec":`+spec+`}`, &cr)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("inline spec create: status %d (%+v)", resp.StatusCode, cr)
	}

	// Bad names and bad specs are 400s, never panics.
	var em errEnvelope
	resp = doJSON(t, ts, http.MethodPost, "/v1/monitors",
		`{"snapshots":24,"workloads":["cryptomining"]}`, &em)
	if resp.StatusCode != http.StatusBadRequest || em.Error.Code != "bad_workload" || !strings.Contains(em.Error.Message, "cryptomining") {
		t.Fatalf("bad workload name: status %d %+v", resp.StatusCode, em)
	}
	resp = doJSON(t, ts, http.MethodPost, "/v1/monitors",
		`{"snapshots":24,"workload_spec":{"phases":[]}}`, &em)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-phase spec: status %d %+v", resp.StatusCode, em)
	}
	resp = doJSON(t, ts, http.MethodPost, "/v1/monitors",
		`{"snapshots":24,"workload_spec":{"phases":[{"rates":{}}],"frobnicate":1}}`, &em)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(em.Error.Message, "frobnicate") {
		t.Fatalf("unknown spec field: status %d %+v", resp.StatusCode, em)
	}
}

func TestCreateWorkloadsSplitModelCache(t *testing.T) {
	// Different workload mixes must train different models; identical
	// mixes must share one cache entry.
	ts := httptest.NewServer(newServer(64))
	defer ts.Close()
	body := `{"grid_w":10,"grid_h":8,"snapshots":24,"kmax":6,"k":4,"workloads":["web"]}`
	var cr createResponse
	for i := 0; i < 2; i++ { // same mix twice -> one model
		if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors", body, &cr); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d failed: %d", i, resp.StatusCode)
		}
	}
	var stats map[string]any
	doJSON(t, ts, http.MethodGet, "/v1/stats", "", &stats)
	if n := stats["models"].(float64); n != 1 {
		t.Fatalf("identical workload mixes trained %v models, want 1", n)
	}
	body2 := `{"grid_w":10,"grid_h":8,"snapshots":24,"kmax":6,"k":4,"workloads":["idle"]}`
	if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors", body2, &cr); resp.StatusCode != http.StatusCreated {
		t.Fatalf("second mix create failed: %d", resp.StatusCode)
	}
	doJSON(t, ts, http.MethodGet, "/v1/stats", "", &stats)
	if n := stats["models"].(float64); n != 2 {
		t.Fatalf("distinct workload mixes share %v models, want 2", n)
	}
}

func TestCreateManycoreFloorplans(t *testing.T) {
	ts := httptest.NewServer(newServer(64))
	defer ts.Close()
	var cr createResponse
	// By registry name.
	resp := doJSON(t, ts, http.MethodPost, "/v1/monitors",
		`{"floorplan":"manycore-16c","grid_w":12,"grid_h":12,"snapshots":24,"kmax":6,"k":4}`, &cr)
	if resp.StatusCode != http.StatusCreated || cr.N != 144 {
		t.Fatalf("manycore-16c create: status %d (%+v)", resp.StatusCode, cr)
	}
	// Fully parametric.
	resp = doJSON(t, ts, http.MethodPost, "/v1/monitors",
		`{"floorplan":"manycore","cores":16,"caches":8,"mesh_w":4,"mesh_h":4,"grid_w":12,"grid_h":12,"snapshots":24,"kmax":6,"k":4}`, &cr)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("parametric manycore create: status %d (%+v)", resp.StatusCode, cr)
	}
	// Degenerate parameters are 400s.
	var em errEnvelope
	resp = doJSON(t, ts, http.MethodPost, "/v1/monitors",
		`{"floorplan":"manycore","cores":16,"caches":8,"mesh_w":3,"mesh_h":4}`, &em)
	if resp.StatusCode != http.StatusBadRequest || em.Error.Code != "bad_floorplan" {
		t.Fatalf("bad mesh: status %d %+v", resp.StatusCode, em)
	}
}

// TestTrackConcurrentBatchesReportOwnSteps sends eight track batches of b
// snapshots to one tracking monitor at once. Each response's steps and
// uncertainty must describe the tracker right after that batch: the steps
// are exactly {b, 2b, …, 8b}, each once, and since the covariance
// recursion does not depend on the readings, each uncertainty is
// bit-identical to a sequential replay's at the same step count.
func TestTrackConcurrentBatchesReportOwnSteps(t *testing.T) {
	srv := newServer(1024)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const batches, b = 8, 5
	concurrent := createMonitor(t, ts, `,"tracking":true`)
	sequential := createMonitor(t, ts, `,"tracking":true`)
	// The synthetic readings would read as drift, and a sensor exclusion
	// rebuilds the tracker from its prior; score nothing.
	for _, id := range []string{concurrent.ID, sequential.ID} {
		srv.monitors[id].res.Load().drift = nil
	}
	payload := estimatePayload(concurrent.M, b)
	type trackReply struct {
		Steps       int     `json:"steps"`
		Uncertainty float64 `json:"uncertainty"`
	}
	post := func(id string) (trackReply, error) {
		var tr trackReply
		resp, err := ts.Client().Post(ts.URL+"/v1/monitors/"+id+"/track", "application/json", strings.NewReader(payload))
		if err != nil {
			return tr, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return tr, fmt.Errorf("track status %d", resp.StatusCode)
		}
		return tr, json.NewDecoder(resp.Body).Decode(&tr)
	}
	replies := make([]trackReply, batches)
	errs := make([]error, batches)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			replies[i], errs[i] = post(concurrent.ID)
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	uncertainty := map[int]float64{}
	for i := 1; i <= batches; i++ {
		tr, err := post(sequential.ID)
		if err != nil {
			t.Fatal(err)
		}
		uncertainty[i*b] = tr.Uncertainty
	}
	sort.Slice(replies, func(i, j int) bool { return replies[i].Steps < replies[j].Steps })
	for i, tr := range replies {
		if tr.Steps != (i+1)*b {
			t.Fatalf("concurrent batches reported steps %+v, want each of %d, %d, … %d once", replies, b, 2*b, batches*b)
		}
		if math.Float64bits(tr.Uncertainty) != math.Float64bits(uncertainty[tr.Steps]) {
			t.Fatalf("steps %d: uncertainty %v, sequential replay %v", tr.Steps, tr.Uncertainty, uncertainty[tr.Steps])
		}
	}
}
