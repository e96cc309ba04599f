package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServeEstimate measures the full in-process request path of the
// serving hot route — dispatch, decode, batched estimate, summarize, encode
// — without client-side HTTP overhead, at the load generator's default
// shape (batch 16). Drift scoring is on this path (fresh monitors are
// calibrated); BenchmarkServeEstimateNoDrift is the same route with the
// detector stripped, so the pair measures drift detection's overhead.
func BenchmarkServeEstimate(b *testing.B) { benchServeEstimate(b, true, false) }

// BenchmarkServeEstimateNoDrift serves the identical load with the drift
// detector removed — the uncalibrated-monitor path. The gap between this
// and BenchmarkServeEstimate is the cost of per-batch residual scoring.
func BenchmarkServeEstimateNoDrift(b *testing.B) { benchServeEstimate(b, false, false) }

// BenchmarkServeEstimateStripped serves the same load with per-request
// tracing disabled (srv.noTrace): no trace allocation, no span clock reads,
// no Server-Timing header, no flight-recorder insert. The gap between this
// and BenchmarkServeEstimate is the total observability overhead, which
// TestInstrumentationOverhead pins to 3% with an interleaved A/B run.
func BenchmarkServeEstimateStripped(b *testing.B) { benchServeEstimate(b, true, true) }

func benchServeEstimate(b *testing.B, withDrift, stripped bool) {
	srv := newServer(1024)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var cr createResponse
	resp, err := ts.Client().Post(ts.URL+"/v1/monitors", "application/json",
		strings.NewReader(`{"floorplan":"t1","grid_w":12,"grid_h":10,"snapshots":80,"seed":1,"kmax":8,"k":4,"m":8}`))
	if err != nil {
		b.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	readings := make([][]float64, 16)
	for i := range readings {
		row := make([]float64, cr.M)
		for j := range row {
			row[j] = 50 + float64(i+j)
		}
		readings[i] = row
	}
	if !withDrift {
		srv.monitors[cr.ID].res.Load().drift = nil
	}
	srv.noTrace = stripped
	body, _ := json.Marshal(map[string]any{"readings": readings})
	payload := string(body)
	path := "/v1/monitors/" + cr.ID + "/estimate"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(payload))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "snapshots/s")
}

// fleetCreateBody is a monitor of the end-to-end benchmark's fleet-json
// workload: t1 at 16×14 (N 224), T 256, KMax 12, K 8, M 12 greedy sensors,
// tracking on.
const fleetCreateBody = `{"floorplan":"t1","grid_w":16,"grid_h":14,"snapshots":256,"seed":1,"kmax":12,"k":8,"m":12,"tracking":true}`

// fleetBatch is fleet-json's snapshots per request.
const fleetBatch = 128

// BenchmarkServeTrack measures the full in-process track request —
// dispatch, decode, 128 Kalman steps into pooled maps, drift scoring,
// summarize, encode — at the fleet-json shape.
func BenchmarkServeTrack(b *testing.B) { benchServeFleet(b, "track") }

// BenchmarkServeEstimateFleet is the estimate route on the same monitor and
// batch as BenchmarkServeTrack, so the pair compares the two routes' cost
// and allocations at one shape.
func BenchmarkServeEstimateFleet(b *testing.B) { benchServeFleet(b, "estimate") }

func benchServeFleet(b *testing.B, route string) {
	srv, path, payload := fleetServer(b, route)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(payload))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	b.ReportMetric(float64(fleetBatch*b.N)/b.Elapsed().Seconds(), "snapshots/s")
}

// fleetServer creates one fleet-shape monitor and returns the server, the
// route's path on it and a fleetBatch-snapshot request body.
func fleetServer(tb testing.TB, route string) (*server, string, string) {
	tb.Helper()
	srv := newServer(1024)
	req := httptest.NewRequest(http.MethodPost, "/v1/monitors", strings.NewReader(fleetCreateBody))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var cr createResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil || w.Code != http.StatusCreated {
		tb.Fatalf("create: status %d %s (%v)", w.Code, w.Body.String(), err)
	}
	return srv, "/v1/monitors/" + cr.ID + "/" + route, estimatePayload(cr.M, fleetBatch)
}

// TestServeTrackAllocsNoMoreThanEstimate pins the track route's per-request
// allocations at or below the estimate route's on the same fleet-shape
// monitor and batch: the Kalman steps write into pooled maps and the reply
// is hand-rendered, so track adds no allocation per snapshot.
func TestServeTrackAllocsNoMoreThanEstimate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	if testing.Short() {
		t.Skip("trains a fleet-shape monitor")
	}
	srv, estimatePath, payload := fleetServer(t, "estimate")
	trackPath := strings.TrimSuffix(estimatePath, "estimate") + "track"
	allocs := func(path string) float64 {
		serve := func() {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(payload))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, w.Code, w.Body.String())
			}
		}
		serve()
		return testing.AllocsPerRun(50, serve)
	}
	est, trk := allocs(estimatePath), allocs(trackPath)
	t.Logf("allocations per request: estimate %v, track %v", est, trk)
	if trk > est {
		t.Fatalf("track allocates %v times per request, estimate %v", trk, est)
	}
}
