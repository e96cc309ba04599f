package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// metricsBody fetches the Prometheus exposition text.
func metricsBody(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// counterValue extracts one un-labeled counter's value from exposition text.
func counterValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		val, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("counter %s: parsing %q: %v", name, val, err)
		}
		return n
	}
	t.Fatalf("counter %s not in metrics output", name)
	return 0
}

// Every failure is the uniform {"error":{"code","message"}} envelope, with a
// stable slug in code and free-form detail in message.
func TestErrorEnvelopeShape(t *testing.T) {
	ts := httptest.NewServer(newServer(64))
	defer ts.Close()

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"unknown route", http.MethodGet, "/v1/nope", "", 404, "not_found"},
		{"unknown unversioned route", http.MethodGet, "/nope", "", 404, "not_found"},
		{"bad create JSON", http.MethodPost, "/v1/monitors", "{", 400, "bad_json"},
		{"unknown monitor", http.MethodPost, "/v1/monitors/mon-404/estimate", `{"readings":[[1]]}`, 404, "not_found"},
		{"bad floorplan", http.MethodPost, "/v1/monitors", `{"floorplan":"pentium"}`, 400, "bad_floorplan"},
	}
	for _, tc := range cases {
		var env errEnvelope
		resp := doJSON(t, ts, tc.method, tc.path, tc.body, &env)
		if resp.StatusCode != tc.wantStatus || env.Error.Code != tc.wantCode || env.Error.Message == "" {
			t.Errorf("%s: status %d code %q message %q, want %d/%q with detail",
				tc.name, resp.StatusCode, env.Error.Code, env.Error.Message, tc.wantStatus, tc.wantCode)
		}
	}
}

// The API lives under /v1 only: the unversioned spellings of API routes
// are plain 404s, while the infrastructure endpoints /healthz and /metrics
// answer on both spellings for probes and scrapers.
func TestUnversionedAPIRoutesAreGone(t *testing.T) {
	ts := httptest.NewServer(newServer(64))
	defer ts.Close()

	for _, path := range []string{"/healthz", "/v1/healthz"} {
		var health map[string]string
		if resp := doJSON(t, ts, http.MethodGet, path, "", &health); resp.StatusCode != 200 || health["status"] != "ok" {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, health)
		}
	}
	cr := createMonitor(t, ts, "")
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodGet, "/monitors", ""},
		{http.MethodPost, "/monitors", fmt.Sprintf(createBody, "")},
		{http.MethodGet, "/stats", ""},
		{http.MethodGet, "/monitors/" + cr.ID, ""},
		{http.MethodPost, "/monitors/" + cr.ID + "/estimate", estimateBody},
	} {
		var env errEnvelope
		if resp := doJSON(t, ts, tc.method, tc.path, tc.body, &env); resp.StatusCode != 404 || env.Error.Code != "not_found" {
			t.Errorf("%s %s: status %d code %q, want 404 not_found", tc.method, tc.path, resp.StatusCode, env.Error.Code)
		}
	}
	if code, b := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", estimateBody); code != 200 {
		t.Fatalf("/v1 estimate: %d %s", code, b)
	}
	for _, path := range []string{"/metrics", "/v1/metrics"} {
		body := metricsBody(t, ts, path)
		for _, want := range []string{`route="notfound",code="404"} 5`, `route="estimate"`, `route="healthz"`} {
			if !strings.Contains(body, want) {
				t.Errorf("GET %s: missing %s", path, want)
			}
		}
	}
}
