package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/basis"
	"repro/internal/wire"
)

// A finite reading beyond ±basis.MaxAbsReading gets 400 bad_readings on
// every route and protocol, and it leaves the monitor's tracker, drift and
// governor state untouched: the next normal request answers byte for byte
// what a twin monitor that never saw the bad one answers.
func TestOutOfRangeReadingsRejectedStatelessly(t *testing.T) {
	newTwin := func() (*httptest.Server, string) {
		ts := httptest.NewServer(newServer(64))
		t.Cleanup(ts.Close)
		cr := createMonitor(t, ts, `,"tracking":true`)
		base := "/v1/monitors/" + cr.ID
		install := `{"config":{"policy":"pi","ceiling_c":60},"readings":` + readingsJSON(goodReadings(cr.M, 2, 0)) + `}`
		if resp := doJSON(t, ts, http.MethodPost, base+"/govern", install, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("govern install: status %d", resp.StatusCode)
		}
		return ts, base
	}
	seen, seenBase := newTwin()
	fresh, freshBase := newTwin()
	m := 8 // createBody's sensor count

	bad := goodReadings(m, 3, 1)
	bad[1][m-1] = 1.7e308
	for _, tc := range []struct {
		route  string
		binary bool
	}{
		{"estimate", false}, {"estimate", true},
		{"govern", false}, {"govern", true},
		{"track", false},
	} {
		name := tc.route
		if tc.binary {
			name += "/binary"
		}
		body, status, code := postReadings(t, seen, seenBase+"/"+tc.route, tc.route, tc.binary, bad)
		if status != http.StatusBadRequest || code != "bad_readings" {
			t.Fatalf("%s: a %g reading got status %d code %q (%s), want 400 bad_readings", name, 1.7e308, status, code, body)
		}
		for step := 0; step < 2; step++ {
			good := goodReadings(m, 3, 2+step)
			got, status, _ := postReadings(t, seen, seenBase+"/"+tc.route, tc.route, tc.binary, good)
			want, _, _ := postReadings(t, fresh, freshBase+"/"+tc.route, tc.route, tc.binary, good)
			if status != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%s step %d after the rejected batch: status %d\n got %s\nwant %s", name, step, status, got, want)
			}
		}
	}

	// The bound itself is a reading the monitor accepts.
	edge := goodReadings(m, 1, 0)
	edge[0][0] = basis.MaxAbsReading
	if _, status, _ := postReadings(t, fresh, freshBase+"/estimate", "estimate", false, edge); status != http.StatusOK {
		t.Fatalf("a reading of exactly %g: status %d, want 200", basis.MaxAbsReading, status)
	}
}

// goodReadings returns batch rows of m plausible die temperatures that
// differ with salt.
func goodReadings(m, batch, salt int) [][]float64 {
	rows := make([][]float64, batch)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			rows[i][j] = 45 + float64((i+j+salt)%7)
		}
	}
	return rows
}

func readingsJSON(rows [][]float64) string {
	b, _ := json.Marshal(rows)
	return string(b)
}

// postReadings sends rows to one route over JSON or the binary protocol
// and returns the body, the status and, for an error, its code.
func postReadings(t *testing.T, ts *httptest.Server, path, route string, binary bool, rows [][]float64) ([]byte, int, string) {
	t.Helper()
	var body []byte
	var status int
	if binary {
		var frame []byte
		var err error
		if route == "govern" {
			frame, err = wire.AppendGovernRequest(nil, &wire.GovernRequest{Readings: rows})
		} else {
			frame, err = wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: rows})
		}
		if err != nil {
			t.Fatal(err)
		}
		var resp *http.Response
		resp, body = postBinary(t, ts, path, frame)
		status = resp.StatusCode
	} else {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader([]byte(`{"readings":`+readingsJSON(rows)+`}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body, status = buf.Bytes(), resp.StatusCode
	}
	var env errEnvelope
	if status != http.StatusOK {
		_ = json.Unmarshal(body, &env)
	}
	return body, status, env.Error.Code
}
