package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/wire"
)

// serveAllocPins are the per-request allocations of the serving routes at
// the in-process benchmarks' shape (t1 12×10, M 8, batch 16): the most
// each route may make. A request allocates the router's and the recorder's
// objects, the trace's writer and the response; batches below the fan-out
// threshold start no goroutines, and no route allocates per snapshot.
var serveAllocPins = map[string]float64{
	"estimate/json":   26,
	"estimate/binary": 26,
	"govern/json":     25,
	"govern/binary":   25,
	"track/json":      26,
}

// TestServeAllocsPinned pins the allocations per request of every route
// over every protocol it serves at serveAllocPins.
func TestServeAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	srv, governPath, estimatePath, governBody, estimateBody := governBenchServer(t)
	var req struct {
		Readings [][]float64 `json:"readings"`
	}
	if err := json.Unmarshal([]byte(estimateBody), &req); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: req.Readings})
	if err != nil {
		t.Fatal(err)
	}
	governFrame, err := wire.AppendGovernRequest(nil, &wire.GovernRequest{Readings: req.Readings})
	if err != nil {
		t.Fatal(err)
	}
	// A tracking twin on the same trained model serves the track route.
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/monitors", strings.NewReader(
		`{"floorplan":"t1","grid_w":12,"grid_h":10,"snapshots":80,"seed":1,"kmax":8,"k":4,"m":8,"tracking":true}`)))
	var cr createResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil || w.Code != http.StatusCreated {
		t.Fatalf("create: status %d %s (%v)", w.Code, w.Body.String(), err)
	}
	routes := []struct {
		name, path, body, contentType string
	}{
		{"estimate/json", estimatePath, estimateBody, "application/json"},
		{"estimate/binary", estimatePath, string(frame), wire.ContentType},
		{"govern/json", governPath, governBody, "application/json"},
		{"govern/binary", governPath, string(governFrame), wire.ContentType},
		{"track/json", "/v1/monitors/" + cr.ID + "/track", estimateBody, "application/json"},
	}
	serve := func(path, body, contentType string) {
		r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body.String())
		}
	}
	// Warm up past the flight recorder's slowest list filling, whose
	// appends are one-off allocations.
	for i := 0; i < 64; i++ {
		for _, rt := range routes {
			serve(rt.path, rt.body, rt.contentType)
		}
	}
	for _, rt := range routes {
		got := testing.AllocsPerRun(100, func() { serve(rt.path, rt.body, rt.contentType) })
		t.Logf("%s: %v allocations per request (pin %v)", rt.name, got, serveAllocPins[rt.name])
		if got > serveAllocPins[rt.name] {
			t.Errorf("%s: %v allocations per request, pinned at %v", rt.name, got, serveAllocPins[rt.name])
		}
	}
}

// dieCreateBody is the end-to-end benchmark's die-binary monitor: t1 on
// the paper's 60×56 grid (N 3360), T 192, KMax 24, K 16, M 24 greedy
// sensors.
const dieCreateBody = `{"floorplan":"t1","grid_w":60,"grid_h":56,"snapshots":192,"seed":1,"kmax":24,"k":16,"m":24}`

// dieServer creates one die-shape monitor and returns the server, its
// monitor path and a binary frame of 16 snapshots.
func dieServer(b *testing.B) (*server, string, []byte) {
	b.Helper()
	srv := newServer(1024)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/monitors", strings.NewReader(dieCreateBody)))
	var cr createResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil || w.Code != http.StatusCreated {
		b.Fatalf("create: status %d %s (%v)", w.Code, w.Body.String(), err)
	}
	readings := make([][]float64, 16)
	for i := range readings {
		readings[i] = make([]float64, cr.M)
		for j := range readings[i] {
			readings[i][j] = 55 + float64((3*i+j)%11)
		}
	}
	frame, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: readings})
	if err != nil {
		b.Fatal(err)
	}
	return srv, "/v1/monitors/" + cr.ID, frame
}

// serveBinary runs b.N binary requests of frame against path.
func serveBinary(b *testing.B, srv *server, path string, frame []byte) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(frame)))
		r.Header.Set("Content-Type", wire.ContentType)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "snapshots/s")
}

// BenchmarkServeDieEstimateBinary is die-binary's estimate request in
// process: a binary frame of 16 snapshots against the paper-scale t1 die.
func BenchmarkServeDieEstimateBinary(b *testing.B) {
	srv, base, frame := dieServer(b)
	serveBinary(b, srv, base+"/estimate", frame)
}

// BenchmarkServeDieGovernBinary is die-binary's govern request in process:
// the same frame through an installed PI governor.
func BenchmarkServeDieGovernBinary(b *testing.B) {
	srv, base, frame := dieServer(b)
	cfg := &wire.GovernConfig{Policy: "pi", CeilingC: 60}
	install, err := wire.AppendGovernRequest(nil, &wire.GovernRequest{Config: cfg, Readings: [][]float64{make([]float64, 24)}})
	if err != nil {
		b.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, base+"/govern", strings.NewReader(string(install)))
	r.Header.Set("Content-Type", wire.ContentType)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		b.Fatalf("install: status %d: %s", w.Code, w.Body.String())
	}
	govern, err := wire.AppendGovernRequest(nil, &wire.GovernRequest{Readings: dieReadings(b, frame)})
	if err != nil {
		b.Fatal(err)
	}
	serveBinary(b, srv, base+"/govern", govern)
}

// dieReadings decodes the readings of an estimate frame.
func dieReadings(b *testing.B, frame []byte) [][]float64 {
	req, err := wire.DecodeEstimateRequest(frame, new(wire.ReadingsBuf))
	if err != nil {
		b.Fatal(err)
	}
	return req.Readings
}
