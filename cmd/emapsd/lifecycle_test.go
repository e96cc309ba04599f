package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// Monitor lifecycle pins: the records a durable daemon writes, and what a
// hot-swapped or scan-rebuilt monitor looks like after a restart.

// fileDigests hashes every file in dir by name.
func fileDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, en := range entries {
		b, err := os.ReadFile(filepath.Join(dir, en.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		out[en.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestRecordBytesPinned pins every byte a durable daemon writes for three
// creates: a plain monitor, a tracking one on the same model, and one on a
// second training key. The model file names are the train-key hashes, so
// this also pins the key. Kept per GOARCH like the create-path digests.
func TestRecordBytesPinned(t *testing.T) {
	// The two architectures agree on these records.
	pinned := map[string]string{
		"model-2bfeb508c83efc59.emod": "f185f0a04891a52c51ec8d7c928213d16906bb633866f01a843983d69621f9ee",
		"model-8fb8baf9f1445778.emod": "5b3029177c5dbd519fc96f66c707258d6a2768834b5fce093aacfbcc541ea77c",
		"mon-1.emon":                  "85e057a37d5869ba3e1a8b33c4a56dc6904fd2de4105e15af5afb3ce84718a6f",
		"mon-2.emon":                  "28aa11447e52fe90223ccb02ff3885640aadd158d76f1d85d69feabd8b8063ed",
		"mon-3.emon":                  "290d8d5424653518aa4e88173c1f3902d74fa90e3682bf4b56dc92ff27daa671",
		"store.index":                 "99f2284d793720652790130a8f9a4231de89f448f93f334a94bfb4dd287935a5",
	}
	want := map[string]map[string]string{"amd64": pinned, "386": pinned}[runtime.GOARCH]
	if want == nil {
		t.Skipf("no digests pinned for GOARCH=%s", runtime.GOARCH)
	}
	dir := t.TempDir()
	ts := httptest.NewServer(durableServer(t, dir))
	for _, extra := range []string{"", `,"tracking":true,"rho":0.9`, `,"workloads":["web","bursty"]`} {
		createMonitor(t, ts, extra)
	}
	ts.Close()
	got := fileDigests(t, dir)
	if len(got) != len(want) {
		t.Fatalf("daemon wrote files %v, want %d", got, len(want))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], sum)
		}
	}
}

// excludeStuckSensor freezes one sensor of a freshly created monitor far
// outside the thermal range until the daemon excludes it, and returns the
// healthy rows it started from.
func excludeStuckSensor(t *testing.T, srv *server, ts *httptest.Server, id string, pos int) [][]float64 {
	t.Helper()
	healthy := healthyReadings(t, srv, id, 8)
	stuck := make([][]float64, len(healthy))
	for i, row := range healthy {
		stuck[i] = append([]float64(nil), row...)
		stuck[i][pos] = 150
	}
	for i := 0; i < 16; i++ {
		if code, _, raw := postEstimate(t, ts, id, stuck); code != 200 {
			t.Fatalf("faulty batch %d: %d %s", i, code, raw)
		}
		if getStats(t, ts, id).Generation >= 1 {
			return healthy
		}
	}
	t.Fatalf("stuck sensor never excluded: %+v", getStats(t, ts, id))
	return nil
}

// adaptToDrift sends globally drifted traffic (every sensor perturbed, none
// enough to be blamed alone) until the daemon hot-swaps in an adapted
// basis, and returns the healthy rows it started from.
func adaptToDrift(t *testing.T, srv *server, ts *httptest.Server, id string) [][]float64 {
	t.Helper()
	healthy := healthyReadings(t, srv, id, 4)
	drifted := make([][]float64, len(healthy))
	for i, row := range healthy {
		drifted[i] = append([]float64(nil), row...)
		for j := range drifted[i] {
			if j%2 == 0 {
				drifted[i][j] += 12
			} else {
				drifted[i][j] -= 12
			}
		}
	}
	for i := 0; i < 64; i++ {
		if code, _, raw := postEstimate(t, ts, id, drifted); code != 200 {
			t.Fatalf("drifted batch %d: %d %s", i, code, raw)
		}
		if getStats(t, ts, id).Generation >= 1 {
			return healthy
		}
	}
	t.Fatalf("drifted monitor never adapted: %+v", getStats(t, ts, id))
	return nil
}

// TestHotSwapSurvivesRestart: a monitor hot-swapped by a sensor exclusion
// or a basis adaptation warm-starts as the generation it was serving — same
// lineage, widths and calibration — and answers full-width client readings
// with the same bytes.
func TestHotSwapSurvivesRestart(t *testing.T) {
	for _, tc := range []struct {
		name string
		swap func(t *testing.T, srv *server, ts *httptest.Server, id string) [][]float64
	}{
		{"exclusion", func(t *testing.T, srv *server, ts *httptest.Server, id string) [][]float64 {
			return excludeStuckSensor(t, srv, ts, id, 3)
		}},
		{"adaptation", func(t *testing.T, srv *server, ts *httptest.Server, id string) [][]float64 {
			srv.adaptAfter = 8
			return adaptToDrift(t, srv, ts, id)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv1 := durableServer(t, dir)
			ts1 := httptest.NewServer(srv1)
			cr := createMonitor(t, ts1, "")
			healthy := tc.swap(t, srv1, ts1, cr.ID)
			probe, err := json.Marshal(map[string]any{"readings": healthy, "include_maps": true})
			if err != nil {
				t.Fatal(err)
			}
			before := getStats(t, ts1, cr.ID)
			code, wantBody := bodyString(t, ts1, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", string(probe))
			if code != 200 {
				t.Fatalf("estimate before restart: %d %s", code, wantBody)
			}
			ts1.Close()

			srv2 := durableServer(t, dir)
			if loaded, skipped := srv2.warmStart(); loaded != 1 || skipped != 0 {
				t.Fatalf("warm start loaded=%d skipped=%d, want 1/0", loaded, skipped)
			}
			ts2 := httptest.NewServer(srv2)
			defer ts2.Close()
			after := getStats(t, ts2, cr.ID)
			if after.Generation != before.Generation || after.Generation < 1 ||
				after.ParentKey != before.ParentKey || after.M != before.M || after.ServingM != before.ServingM ||
				after.Calibrated != before.Calibrated || !after.Calibrated ||
				!slices.Equal(after.ExcludedSensors, before.ExcludedSensors) {
				t.Fatalf("swapped monitor after restart %+v, before %+v", after, before)
			}
			code, gotBody := bodyString(t, ts2, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", string(probe))
			if code != 200 || gotBody != wantBody {
				t.Fatalf("estimate after restart: %d\n got %s\nwant %s", code, gotBody, wantBody)
			}
		})
	}
}

// listedM returns the m each listed monitor reports in GET /v1/monitors.
func listedM(t *testing.T, ts *httptest.Server) map[string]int {
	t.Helper()
	var list struct {
		Monitors []monitorInfo `json:"monitors"`
	}
	if resp := doJSON(t, ts, http.MethodGet, "/v1/monitors", "", &list); resp.StatusCode != 200 {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	out := make(map[string]int, len(list.Monitors))
	for _, m := range list.Monitors {
		out[m.ID] = m.M
	}
	return out
}

// TestExcludedWidthRebuildsFromScan: after a sensor exclusion the monitor
// list reports the client-facing width m (API.md), whether the restarted
// daemon booted from its index or rebuilt the index from the record scan.
func TestExcludedWidthRebuildsFromScan(t *testing.T) {
	dir := t.TempDir()
	srv1 := durableServer(t, dir)
	ts1 := httptest.NewServer(srv1)
	cr := createMonitor(t, ts1, "")
	excludeStuckSensor(t, srv1, ts1, cr.ID, 3)
	if got := listedM(t, ts1)[cr.ID]; got != cr.M {
		t.Fatalf("listed m %d after exclusion, want client width %d", got, cr.M)
	}
	ts1.Close()

	for _, boot := range []string{"index", "scan"} {
		if boot == "scan" {
			if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
				t.Fatal(err)
			}
		}
		srv := durableServer(t, dir)
		if loaded, _ := srv.warmStart(); loaded != 1 {
			t.Fatalf("%s boot loaded %d monitors, want 1", boot, loaded)
		}
		ts := httptest.NewServer(srv)
		got := listedM(t, ts)[cr.ID]
		st := getStats(t, ts, cr.ID)
		ts.Close()
		if got != cr.M || st.M != cr.M || st.ServingM != cr.M-1 {
			t.Fatalf("%s boot: listed m %d, stats m %d serving_m %d; want %d/%d/%d",
				boot, got, st.M, st.ServingM, cr.M, cr.M, cr.M-1)
		}
	}
}

// TestScanBootHonoursMaxMonitors: records adopted by the boot scan (no
// index) count against -max-monitors like paged-in ones, and the monitors
// paged out to keep the cap page back in on their next touch.
func TestScanBootHonoursMaxMonitors(t *testing.T) {
	dir := t.TempDir()
	ids := seedLargeStore(t, dir, 6)
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	srv := durableServer(t, dir)
	srv.maxMonitors = 2
	if loaded, skipped := srv.warmStart(); loaded != 6 || skipped != 0 {
		t.Fatalf("scan boot loaded=%d skipped=%d, want 6/0", loaded, skipped)
	}
	srv.mu.Lock()
	residents := len(srv.residents)
	live := 0
	for _, e := range srv.monitors {
		if e.res.Load() != nil {
			live++
		}
	}
	srv.mu.Unlock()
	if residents > 2 || live > 2 {
		t.Fatalf("scan boot left %d registered and %d live residents, cap 2", residents, live)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, id := range ids {
		if code, b := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+id+"/estimate", estimateBody); code != 200 {
			t.Fatalf("estimate on %s after scan boot: %d %s", id, code, b)
		}
	}
}
