package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// Serving-pipeline pins: the bytes estimate, track and govern answer over
// both protocols, the status and code of every refusal in precedence
// order, and a refused govern request leaving the running governor alone.

// servedRequest is one estimate, track or govern request over JSON or the
// binary protocol.
type servedRequest struct {
	route  string // "estimate", "track" or "govern"
	binary bool
	rows   [][]float64
	maps   string             // the JSON include_maps value ("" = absent), or "true" for a binary flag
	config *wire.GovernConfig // govern only
}

// encode renders q in its protocol and returns the body and content type.
func (q servedRequest) encode(t *testing.T) ([]byte, string) {
	t.Helper()
	if q.binary {
		var frame []byte
		var err error
		if q.route == "govern" {
			frame, err = wire.AppendGovernRequest(nil, &wire.GovernRequest{Readings: q.rows, Config: q.config})
		} else {
			frame, err = wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: q.rows, IncludeMaps: q.maps == "true"})
		}
		if err != nil {
			t.Fatal(err)
		}
		return frame, wire.ContentType
	}
	doc := `{"readings":` + readingsJSON(q.rows)
	if q.maps != "" {
		doc += `,"include_maps":` + q.maps
	}
	if q.config != nil {
		cfg, err := json.Marshal(q.config)
		if err != nil {
			t.Fatal(err)
		}
		doc += `,"config":` + string(cfg)
	}
	return []byte(doc + "}"), "application/json"
}

// serveIn serves one request in process and returns the recorder.
func serveIn(srv *server, method, path, contentType string, body []byte) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w
}

// TestServedBytesPinned pins the SHA-256 of every response body of a fixed
// sequence on the tracking test die: each route over each protocol it
// serves, include_maps absent, false and true, governor installs over both
// protocols, and enough batches (some shifted off the training
// distribution) to move the tracker, the governors and the drift detector,
// whose state the closing GET reports. The two architectures agree.
func TestServedBytesPinned(t *testing.T) {
	const pinned = "e75c4b77fc354aaa467212bd8d8825b935a3f127d8202ed8f60120c9d22536bf"
	srv := newServer(64)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cr := createMonitor(t, ts, `,"tracking":true`)
	rows := healthyReadings(t, srv, cr.ID, 80)
	batch := func(i int, shift float64) [][]float64 {
		out := make([][]float64, 4)
		for r := range out {
			out[r] = append([]float64(nil), rows[(4*i+r)%len(rows)]...)
			for j := range out[r] {
				out[r][j] += shift
			}
		}
		return out
	}
	pi := &wire.GovernConfig{Policy: "pi", CeilingC: 60}
	hyst := &wire.GovernConfig{Policy: "hysteresis", CeilingC: 58, Ladder: []float64{0.5, 0.75, 1}}
	thresh := &wire.GovernConfig{Policy: "threshold", CeilingC: 55}
	seq := []servedRequest{
		{route: "estimate", rows: batch(0, 0)},
		{route: "estimate", rows: batch(1, 0), maps: "true"},
		{route: "estimate", rows: batch(2, 0), maps: "false"},
		{route: "estimate", binary: true, rows: batch(3, 0)},
		{route: "estimate", binary: true, rows: batch(4, 0), maps: "true"},
		{route: "track", rows: batch(5, 0)},
		{route: "track", rows: batch(6, 0), maps: "true"},
		{route: "govern", rows: batch(7, 0), config: pi},
		{route: "govern", rows: batch(8, 0)},
		{route: "govern", binary: true, rows: batch(9, 0)},
		{route: "govern", binary: true, rows: batch(10, 0), config: hyst},
		{route: "govern", rows: batch(11, 0)},
		{route: "track", rows: batch(12, 0), maps: "false"},
		{route: "estimate", rows: batch(13, 3)},
		{route: "estimate", binary: true, rows: batch(14, 3)},
		{route: "govern", binary: true, rows: batch(15, 3)},
		{route: "track", rows: batch(16, 3)},
		{route: "govern", rows: batch(17, 0), config: thresh},
		{route: "govern", binary: true, rows: batch(18, 0)},
		{route: "estimate", rows: batch(19, 0), maps: "true"},
		{route: "track", rows: batch(20, 0), maps: "true"},
	}
	sum := sha256.New()
	base := "/v1/monitors/" + cr.ID
	for i, q := range seq {
		body, ct := q.encode(t)
		w := serveIn(srv, http.MethodPost, base+"/"+q.route, ct, body)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d (%s): status %d: %s", i, q.route, w.Code, w.Body.Bytes())
		}
		fmt.Fprintf(sum, "%d %s %d\n", i, w.Header().Get("Content-Type"), w.Body.Len())
		sum.Write(w.Body.Bytes())
	}
	w := serveIn(srv, http.MethodGet, base, "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", base, w.Code)
	}
	sum.Write(w.Body.Bytes())
	if got := hex.EncodeToString(sum.Sum(nil)); got != pinned {
		t.Errorf("response bytes hash %s, pinned %s (closing stats %s)", got, pinned, w.Body.Bytes())
	}
}

// TestRefusalPrecedence pins the status and code of every refusal on every
// route and protocol. Each refused request also carries the faults of
// every later class it can express, so the table pins the order the
// classes are checked in: the monitor's record, the tracker, the body
// bound, the decode, the governor config, then the batch. Track reads JSON
// only: a binary frame sent to it is malformed JSON.
func TestRefusalPrecedence(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(4)
	if err := srv.openStore(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	trk := createMonitor(t, ts, `,"tracking":true`).ID
	plain := createMonitor(t, ts, "").ID
	gone := createMonitor(t, ts, `,"tracking":true`).ID
	corrupt := createMonitor(t, ts, `,"tracking":true`).ID
	install := `{"config":{"policy":"pi","ceiling_c":60},"readings":[[50,51,52,53,54,55,56,57]]}`
	if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+trk+"/govern", install, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("installing the governor: status %d", resp.StatusCode)
	}
	// Page the last two out, then take their records away.
	for _, id := range []string{gone, corrupt} {
		srv.mu.Lock()
		srv.monitors[id].res.Store(nil)
		delete(srv.residents, id)
		srv.mu.Unlock()
	}
	if err := os.Remove(filepath.Join(dir, gone+monitorSuffix)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, corrupt+monitorSuffix), []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	rs := srv.monitors[trk].res.Load()
	srv.mu.Unlock()
	limit := srv.bodyLimit(rs)

	tooMany := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}} // over -max-batch 4, and the wrong width
	badLadder := &wire.GovernConfig{Policy: "pi", CeilingC: -1, Ladder: []float64{1, 0.5}}
	badPolicy := &wire.GovernConfig{Policy: "pi", CeilingC: -1}
	type refusal struct {
		class, monitor string
		routes         []string
		req            servedRequest // the body sent, unless over the bound or malformed
		overBound      bool          // declare a length one past the bound
		malformed      bool          // bytes neither protocol decodes
		status         int
		code           string
	}
	all := []string{"estimate", "track", "govern"}
	refusals := []refusal{
		{class: "record missing", monitor: gone, routes: all, overBound: true, status: 404, code: "record_missing"},
		{class: "record corrupt", monitor: corrupt, routes: all, overBound: true, status: 500, code: "record_corrupt"},
		{class: "no tracker", monitor: plain, routes: []string{"track"}, overBound: true, status: 400, code: "no_tracker"},
		{class: "over the bound", monitor: trk, routes: all, overBound: true, status: 413, code: "body_too_large"},
		{class: "malformed", monitor: trk, routes: all, malformed: true, status: 400, code: "bad_json"},
		{class: "bad ladder", monitor: trk, routes: []string{"govern"}, req: servedRequest{config: badLadder}, status: 400, code: "bad_ladder"},
		{class: "bad policy", monitor: trk, routes: []string{"govern"}, req: servedRequest{config: badPolicy}, status: 400, code: "bad_policy"},
		{class: "no governor", monitor: plain, routes: []string{"govern"}, status: 400, code: "no_governor"},
		{class: "empty batch", monitor: trk, routes: all, status: 400, code: "empty_batch"},
		{class: "batch too large", monitor: trk, routes: all, req: servedRequest{rows: tooMany}, status: 400, code: "batch_too_large"},
		{class: "bad readings", monitor: trk, routes: all, req: servedRequest{rows: [][]float64{{1, 2}}}, status: 400, code: "bad_readings"},
	}
	for _, rf := range refusals {
		for _, route := range rf.routes {
			for _, binary := range []bool{false, true} {
				name := rf.class + "/" + route + "/json"
				if binary {
					name = rf.class + "/" + route + "/binary"
				}
				t.Run(name, func(t *testing.T) {
					q := rf.req
					q.route, q.binary = route, binary
					body, ct := q.encode(t)
					status, code := rf.status, rf.code
					switch {
					case rf.overBound:
						body = bytes.Repeat([]byte{'x'}, int(limit)+1)
					case rf.malformed:
						body = []byte(`{"readings":[[1,`)
					}
					if binary && code == "bad_json" && route != "track" {
						code = "bad_frame"
					}
					if binary && route == "track" && status == 400 && code != "no_tracker" {
						// Track decodes every body as JSON.
						code = "bad_json"
					}
					w := serveIn(srv, http.MethodPost, "/v1/monitors/"+rf.monitor+"/"+route, ct, body)
					var env errEnvelope
					if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
						t.Fatalf("status %d, body %q is not the error envelope", w.Code, w.Body.Bytes())
					}
					if w.Code != status || env.Error.Code != code {
						t.Errorf("status %d code %q (%s), want %d %q", w.Code, env.Error.Code,
							strings.TrimSpace(env.Error.Message), status, code)
					}
				})
			}
		}
	}
}

// TestRefusedGovernKeepsGovernor: a govern request whose config is valid
// but whose batch is refused leaves the installed governor in place, over
// JSON and binary alike. The next bare request answers byte for byte what
// a twin monitor that never saw the refused one answers.
func TestRefusedGovernKeepsGovernor(t *testing.T) {
	threshold := &wire.GovernConfig{Policy: "threshold", CeilingC: 50}
	for _, binary := range []bool{false, true} {
		for _, tc := range []struct {
			name string
			rows [][]float64
		}{
			{"empty batch", nil},
			{"reading out of range", [][]float64{{1.7e308, 50, 50, 50, 50, 50, 50, 50}}},
			{"wrong width", [][]float64{{50, 50}}},
		} {
			name := tc.name + "/json"
			if binary {
				name = tc.name + "/binary"
			}
			t.Run(name, func(t *testing.T) {
				newTwin := func() (*server, string) {
					srv := newServer(64)
					ts := httptest.NewServer(srv)
					t.Cleanup(ts.Close)
					base := "/v1/monitors/" + createMonitor(t, ts, "").ID + "/govern"
					for step := 0; step < 3; step++ {
						q := servedRequest{route: "govern", binary: binary, rows: goodReadings(8, 4, step)}
						if step == 0 {
							q.config = &wire.GovernConfig{Policy: "pi", CeilingC: 48}
						}
						body, ct := q.encode(t)
						if w := serveIn(srv, http.MethodPost, base, ct, body); w.Code != http.StatusOK {
							t.Fatalf("step %d: status %d: %s", step, w.Code, w.Body.Bytes())
						}
					}
					return srv, base
				}
				seen, seenBase := newTwin()
				fresh, freshBase := newTwin()
				refused := servedRequest{route: "govern", binary: binary, rows: tc.rows, config: threshold}
				body, ct := refused.encode(t)
				if w := serveIn(seen, http.MethodPost, seenBase, ct, body); w.Code != http.StatusBadRequest {
					t.Fatalf("refused request: status %d: %s", w.Code, w.Body.Bytes())
				}
				next := servedRequest{route: "govern", binary: binary, rows: goodReadings(8, 4, 9)}
				body, ct = next.encode(t)
				got := serveIn(seen, http.MethodPost, seenBase, ct, body)
				want := serveIn(fresh, http.MethodPost, freshBase, ct, body)
				if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("after the refused request: status %d\n got %s\nwant %s", got.Code, got.Body.Bytes(), want.Body.Bytes())
				}
			})
		}
	}
}
