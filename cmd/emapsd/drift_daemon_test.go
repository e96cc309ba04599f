package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/wire"
)

// qualityEnvelope decodes just the verdict the daemon stamps on responses.
type qualityEnvelope struct {
	Quality string `json:"quality"`
}

// monitorStats mirrors the GET /v1/monitors/{id} body.
type monitorStats struct {
	ID              string  `json:"id"`
	K               int     `json:"k"`
	M               int     `json:"m"`
	ServingM        int     `json:"serving_m"`
	Sensors         []int   `json:"sensors"`
	Generation      int     `json:"generation"`
	TrainKey        string  `json:"train_key"`
	ParentKey       string  `json:"parent_key"`
	Calibrated      bool    `json:"calibrated"`
	DriftState      string  `json:"drift_state"`
	DriftEWMA       float64 `json:"drift_ewma"`
	ExcludedSensors []int   `json:"excluded_sensors"`
}

func getStats(t *testing.T, ts *httptest.Server, id string) monitorStats {
	t.Helper()
	var st monitorStats
	if resp := doJSON(t, ts, http.MethodGet, "/v1/monitors/"+id, "", &st); resp.StatusCode != 200 {
		t.Fatalf("GET /v1/monitors/%s: status %d", id, resp.StatusCode)
	}
	return st
}

// healthyReadings samples the monitor's training ensemble (held by its
// model-cache entry) at its sensor cells: in-distribution traffic the
// calibrated detector must call OK.
func healthyReadings(t *testing.T, srv *server, id string, n int) [][]float64 {
	t.Helper()
	srv.mu.Lock()
	e := srv.monitors[id]
	srv.mu.Unlock()
	if e == nil {
		t.Fatalf("monitor %s not registered", id)
	}
	rs := e.res.Load()
	var me *modelEntry
	if rs != nil {
		key, _, err := keyFromMeta(rs.meta)
		if err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		me = srv.models[key]
		srv.mu.Unlock()
	}
	if rs == nil || me == nil || me.ds == nil {
		t.Fatalf("monitor %s not resident with its ensemble", id)
	}
	ds := me.ds
	rec := rs.mon.Reconstructor()
	if n > ds.T() {
		n = ds.T()
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = append([]float64(nil), rec.Sample(ds.Map(i))...)
	}
	return rows
}

func postEstimate(t *testing.T, ts *httptest.Server, id string, rows [][]float64) (int, qualityEnvelope, string) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"readings": rows})
	if err != nil {
		t.Fatal(err)
	}
	code, raw := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+id+"/estimate", string(body))
	var q qualityEnvelope
	if code == 200 {
		if err := json.Unmarshal([]byte(raw), &q); err != nil {
			t.Fatalf("estimate response: %v (%s)", err, raw)
		}
	}
	return code, q, raw
}

// TestRouteTableMatchesDispatch pins the canonical route table (what
// -print-routes prints and the docs CI job greps) against the actual
// dispatcher: every advertised method+path must land on the advertised
// metrics label.
func TestRouteTableMatchesDispatch(t *testing.T) {
	srv := newServer(1024)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cr := createMonitor(t, ts, "")

	// DELETE tears the monitor down; dispatch it last so the {id} routes
	// before it hit a live monitor.
	rts := append([]routeInfo(nil), routeTable...)
	sort.SliceStable(rts, func(i, j int) bool {
		return rts[i].label != "delete" && rts[j].label == "delete"
	})
	for _, rt := range rts {
		path := strings.ReplaceAll(rt.path, "{id}", cr.ID)
		body := ""
		switch {
		case rt.label == "create":
			body = fmt.Sprintf(createBody, "")
		case rt.method == http.MethodPost:
			body = "{}"
		}
		req := httptest.NewRequest(rt.method, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		if got := srv.dispatch(w, req); got != rt.label {
			t.Errorf("%s %s dispatched to label %q, route table says %q", rt.method, rt.path, got, rt.label)
		}
	}
}

// TestMonitorStatsRoute: a freshly created monitor reports generation 0,
// full sensor complement, a calibrated OK detector, and its train key.
func TestMonitorStatsRoute(t *testing.T) {
	ts := httptest.NewServer(newServer(1024))
	defer ts.Close()
	cr := createMonitor(t, ts, "")

	st := getStats(t, ts, cr.ID)
	if st.ID != cr.ID || st.K != cr.K || st.M != cr.M || st.ServingM != cr.M {
		t.Fatalf("stats identity mismatch: %+v vs create %+v", st, cr)
	}
	if st.Generation != 0 || st.ParentKey != "" {
		t.Fatalf("fresh monitor has lineage %d/%q, want 0/\"\"", st.Generation, st.ParentKey)
	}
	if st.TrainKey == "" {
		t.Fatal("stats omitted train_key")
	}
	if !st.Calibrated || st.DriftState != "ok" {
		t.Fatalf("fresh monitor calibrated=%v drift_state=%q, want true/ok", st.Calibrated, st.DriftState)
	}
	if len(st.ExcludedSensors) != 0 {
		t.Fatalf("fresh monitor reports excluded sensors %v", st.ExcludedSensors)
	}

	if code, _ := bodyString(t, ts, http.MethodGet, "/v1/monitors/no-such-monitor", ""); code != 404 {
		t.Fatalf("stats for unknown monitor: %d, want 404", code)
	}
}

// TestSensorFaultExclusion drives the full fault story over HTTP: healthy
// traffic serves quality "ok"; a stuck sensor pushes the detector out of OK
// with per-sensor attribution; the daemon excludes the sensor, re-folds the
// operator over the survivors and hot-swaps; clients keep sending
// full-length vectors and are back to quality "ok" on the next request.
func TestSensorFaultExclusion(t *testing.T) {
	srv := newServer(1024)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	healthy := healthyReadings(t, srv, cr.ID, 8)

	// 4 healthy observations: in-distribution, verdict OK.
	code, q, raw := postEstimate(t, ts, cr.ID, healthy[:4])
	if code != 200 || q.Quality != "ok" {
		t.Fatalf("healthy estimate: %d quality %q (%s)", code, q.Quality, raw)
	}

	const stuckPos = 3
	stuck := make([][]float64, len(healthy))
	for i, row := range healthy {
		r := append([]float64(nil), row...)
		r[stuckPos] = 150 // frozen far outside the thermal range
		stuck[i] = r
	}

	// First faulty batch (8 rows → 12 observations total): still below the
	// detector's MinCount gate, so the verdict stays OK.
	if code, q, raw = postEstimate(t, ts, cr.ID, stuck); code != 200 || q.Quality != "ok" {
		t.Fatalf("first faulty batch: %d quality %q (%s)", code, q.Quality, raw)
	}

	// Second faulty batch (20 observations) crosses MinCount on the binary
	// path: the frame's quality flags must carry the out-of-OK verdict.
	frame, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: stuck})
	if err != nil {
		t.Fatal(err)
	}
	resp, rawB := postBinary(t, ts, "/v1/monitors/"+cr.ID+"/estimate", frame)
	if resp.StatusCode != 200 {
		t.Fatalf("second faulty batch (binary): %d %s", resp.StatusCode, rawB)
	}
	if _, quality, err := wire.DecodeEstimateResponse(rawB); err != nil || quality == wire.QualityOK {
		t.Fatalf("second faulty batch: quality %v err %v, want drifting/degraded", quality, err)
	}

	// Sustained fault evidence: the smoothed per-sensor attribution needs a
	// few more batches to converge past FaultRatio, at which point the
	// daemon excludes the sensor and hot-swaps synchronously.
	swapped := false
	for i := 0; i < 8 && !swapped; i++ {
		if code, _, raw = postEstimate(t, ts, cr.ID, stuck); code != 200 {
			t.Fatalf("faulty batch %d: %d %s", i, code, raw)
		}
		swapped = getStats(t, ts, cr.ID).Generation >= 1
	}
	if !swapped {
		t.Fatalf("stuck sensor never excluded: %+v", getStats(t, ts, cr.ID))
	}

	// Post-swap: same full-length (still stuck) readings serve fine; the
	// stuck position is compacted away, so the verdict is OK again.
	if code, q, raw = postEstimate(t, ts, cr.ID, stuck); code != 200 || q.Quality != "ok" {
		t.Fatalf("post-swap estimate: %d quality %q (%s)", code, q.Quality, raw)
	}

	st := getStats(t, ts, cr.ID)
	if st.Generation < 1 {
		t.Fatalf("no swap recorded: generation %d", st.Generation)
	}
	if st.M != cr.M || st.ServingM != cr.M-1 {
		t.Fatalf("client m %d serving_m %d, want %d/%d", st.M, st.ServingM, cr.M, cr.M-1)
	}
	if st.ParentKey != st.TrainKey || st.ParentKey == "" {
		t.Fatalf("adapted lineage parent_key %q, want train key %q", st.ParentKey, st.TrainKey)
	}
	wantCell := cr.Sensors[stuckPos]
	if len(st.ExcludedSensors) != 1 || st.ExcludedSensors[0] != wantCell {
		t.Fatalf("excluded sensors %v, want [%d]", st.ExcludedSensors, wantCell)
	}
	if st.DriftState != "ok" {
		t.Fatalf("post-swap drift_state %q, want ok", st.DriftState)
	}

	metrics := metricsBody(t, ts, "/metrics")
	if counterValue(t, metrics, "emapsd_adaptations_total") < 1 {
		t.Fatal("emapsd_adaptations_total did not increment")
	}
	if counterValue(t, metrics, "emapsd_sensor_faults_total") < 1 {
		t.Fatal("emapsd_sensor_faults_total did not increment")
	}
	gaugeLine := fmt.Sprintf("emapsd_drift_state{monitor=%q} 0", cr.ID)
	if !strings.Contains(metrics, gaugeLine) {
		t.Fatalf("metrics missing %q", gaugeLine)
	}
}

// TestAdaptationHotSwapZeroDrops is the zero-downtime pin: concurrent
// clients hammer a monitor with globally drifted traffic (no single faulty
// sensor) while the daemon absorbs estimates and hot-swaps to an adapted
// basis. Every single request must come back 200 — the atomic pointer swap
// may never drop or fail a request — and at least one adaptation must have
// happened. Run under -race this also proves the swap is data-race free.
func TestAdaptationHotSwapZeroDrops(t *testing.T) {
	srv := newServer(1024)
	srv.adaptAfter = 8 // swap quickly so the test exercises it
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	healthy := healthyReadings(t, srv, cr.ID, 4)

	// Global drift: an alternating perturbation on every sensor. High
	// spatial frequency keeps it outside the smooth thermal subspace, and
	// spreading it across sensors keeps any one below the fault-attribution
	// threshold, so the daemon adapts instead of excluding.
	drifted := make([][]float64, len(healthy))
	for i, row := range healthy {
		r := append([]float64(nil), row...)
		for j := range r {
			if j%2 == 0 {
				r[j] += 12
			} else {
				r[j] -= 12
			}
		}
		drifted[i] = r
	}
	body, err := json.Marshal(map[string]any{"readings": drifted})
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 12
	codes := make(chan int, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				code, _ := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", string(body))
				codes <- code
			}
		}()
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != 200 {
			t.Fatalf("request dropped during hot-swap: status %d", code)
		}
	}

	st := getStats(t, ts, cr.ID)
	if st.Generation < 1 {
		t.Fatalf("no adaptation happened: generation %d", st.Generation)
	}
	if st.ServingM != cr.M || len(st.ExcludedSensors) != 0 {
		t.Fatalf("global drift excluded sensors: serving_m %d excluded %v", st.ServingM, st.ExcludedSensors)
	}
	metrics := metricsBody(t, ts, "/metrics")
	if counterValue(t, metrics, "emapsd_adaptations_total") < 1 {
		t.Fatal("emapsd_adaptations_total did not increment")
	}
	if counterValue(t, metrics, "emapsd_sensor_faults_total") != 0 {
		t.Fatal("global drift was misattributed to a sensor fault")
	}

	// The adapted monitor still serves healthy traffic.
	if code, _, raw := postEstimate(t, ts, cr.ID, healthy); code != 200 {
		t.Fatalf("adapted monitor rejects healthy traffic: %d %s", code, raw)
	}
}

// TestDriftRingLastRows pins the recalibration ring's read side: after
// every 16-row batch, while the ring fills and after it wraps, lastRows(n)
// returns the n newest remembered rows, newest first, so adaptation can
// absorb a monitor's first batches too. Rows of the wrong width are not
// remembered.
func TestDriftRingLastRows(t *testing.T) {
	const m = 3
	ds := &driftState{}
	seen := 0
	for batch := 0; batch < 12; batch++ {
		rows := [][]float64{{-1}}
		for i := 0; i < 16; i++ {
			rows = append(rows, []float64{float64(seen), 0, 0})
			seen++
		}
		ds.rememberBatch(rows, m)
		for _, n := range []int{1, 16, 40, driftRingCap, driftRingCap + 1} {
			got := ds.lastRows(n)
			if want := min(n, seen, driftRingCap); len(got) != want {
				t.Fatalf("after %d rows: lastRows(%d) gave %d rows, want %d", seen, n, len(got), want)
			}
			for i, row := range got {
				if row[0] != float64(seen-1-i) {
					t.Fatalf("after %d rows: lastRows(%d)[%d] is row %v, want %d", seen, n, i, row[0], seen-1-i)
				}
			}
		}
	}
}
