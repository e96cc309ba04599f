package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wire"
)

// governJSONResponse mirrors the JSON govern reply.
type governJSONResponse struct {
	Quality      string                `json:"quality"`
	Ladder       []float64             `json:"ladder"`
	Cores        int                   `json:"cores"`
	Decisions    []wire.GovernDecision `json:"decisions"`
	Snapshots    uint64                `json:"snapshots"`
	ThrottleDuty float64               `json:"throttle_duty"`
}

// hotAndCold returns a batch whose first row reads hot (well above the
// ceiling everywhere) and second reads training-typical temperatures.
func hotAndCold(m int) [][]float64 {
	hot := make([]float64, m)
	cold := make([]float64, m)
	for j := 0; j < m; j++ {
		hot[j] = 95 + float64(j)
		cold[j] = 46 + float64(j)/4
	}
	return [][]float64{hot, cold}
}

func TestGovernRoute(t *testing.T) {
	ts := httptest.NewServer(newServer(1024))
	defer ts.Close()
	cr := createMonitor(t, ts, "")

	// First request without a config: the route must demand one.
	var env errEnvelope
	resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/govern",
		`{"readings":[[46,46,46,46,46,46,46,46]]}`, &env)
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "no_governor" {
		t.Fatalf("config-less govern: status %d code %q", resp.StatusCode, env.Error.Code)
	}

	// Configure a hysteresis governor and stream a hot+cold batch.
	body, _ := json.Marshal(map[string]any{
		"config": map[string]any{
			"policy": "hysteresis", "ceiling_c": 70,
			"set_c": 68, "clear_c": 60,
		},
		"readings": hotAndCold(cr.M),
	})
	var gr governJSONResponse
	if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/govern", string(body), &gr); resp.StatusCode != 200 {
		t.Fatalf("govern status %d", resp.StatusCode)
	}
	if gr.Quality == "" || gr.Cores != 8 || len(gr.Ladder) == 0 {
		t.Fatalf("govern response identity: %+v", gr)
	}
	if len(gr.Decisions) != 2 {
		t.Fatalf("got %d decisions for 2 snapshots", len(gr.Decisions))
	}
	top := len(gr.Ladder) - 1
	throttled := 0
	for _, l := range gr.Decisions[0].Levels {
		if l < top {
			throttled++
		}
	}
	if throttled == 0 {
		t.Errorf("hot snapshot (est max %.1f °C vs 68 °C set point) engaged no caps: %v",
			gr.Decisions[0].MaxC, gr.Decisions[0].Levels)
	}
	if gr.Snapshots != 2 || gr.ThrottleDuty <= 0 {
		t.Errorf("cumulative counters: snapshots=%d duty=%v", gr.Snapshots, gr.ThrottleDuty)
	}
	for i, d := range gr.Decisions {
		if len(d.Levels) != gr.Cores || math.IsNaN(d.MaxC) || d.MaxC < d.MinC {
			t.Errorf("decision %d malformed: %+v", i, d)
		}
	}

	// Second request without a config streams through the installed governor
	// and keeps accumulating.
	body2, _ := json.Marshal(map[string]any{"readings": hotAndCold(cr.M)})
	var gr2 governJSONResponse
	if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/govern", string(body2), &gr2); resp.StatusCode != 200 {
		t.Fatalf("second govern status %d", resp.StatusCode)
	}
	if gr2.Snapshots != 4 {
		t.Errorf("cumulative snapshots = %d, want 4", gr2.Snapshots)
	}

	// The govern stage must be attributed in the flight recorder.
	metricsResp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	text, _ := io.ReadAll(metricsResp.Body)
	if !strings.Contains(string(text), `emapsd_stage_duration_seconds_count{stage="govern"}`) {
		t.Error("metrics exposition carries no govern stage histogram")
	}
	if !strings.Contains(string(text), `emapsd_requests_total{route="govern",code="200"}`) {
		t.Error("metrics exposition carries no govern route counter")
	}
}

func TestGovernDegenerateCaps(t *testing.T) {
	ts := httptest.NewServer(newServer(64))
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	path := "/v1/monitors/" + cr.ID + "/govern"

	cases := []struct {
		name string
		body string
		code string
	}{
		{"unknown policy", `{"config":{"policy":"bang","ceiling_c":70},"readings":[[46,46,46,46,46,46,46,46]]}`, "bad_policy"},
		{"zero ceiling", `{"config":{"policy":"pi"},"readings":[[46,46,46,46,46,46,46,46]]}`, "bad_policy"},
		{"inverted band", `{"config":{"policy":"hysteresis","ceiling_c":70,"set_c":60,"clear_c":65},"readings":[[46,46,46,46,46,46,46,46]]}`, "bad_policy"},
		{"descending ladder", `{"config":{"policy":"threshold","ceiling_c":70,"ladder":[1.0,0.5]},"readings":[[46,46,46,46,46,46,46,46]]}`, "bad_ladder"},
		{"ladder above one", `{"config":{"policy":"threshold","ceiling_c":70,"ladder":[0.5,1.5]},"readings":[[46,46,46,46,46,46,46,46]]}`, "bad_ladder"},
		{"empty ladder", `{"config":{"policy":"threshold","ceiling_c":70,"ladder":[]},"readings":[[46,46,46,46,46,46,46,46]]}`, "bad_ladder"},
		{"bad json", `{"config":`, "bad_json"},
	}
	for _, tc := range cases {
		var env errEnvelope
		resp := doJSON(t, ts, http.MethodPost, path, tc.body, &env)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != tc.code {
			t.Errorf("%s: status %d code %q, want 400 %q", tc.name, resp.StatusCode, env.Error.Code, tc.code)
		}
	}

	// A degenerate config must not install a governor.
	var env errEnvelope
	resp := doJSON(t, ts, http.MethodPost, path, `{"readings":[[46,46,46,46,46,46,46,46]]}`, &env)
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "no_governor" {
		t.Errorf("after degenerate configs: status %d code %q, want 400 no_governor", resp.StatusCode, env.Error.Code)
	}

	// Wrong-length readings surface the estimator's error, not a panic.
	good := `{"config":{"policy":"threshold","ceiling_c":70},"readings":[[1,2,3]]}`
	resp = doJSON(t, ts, http.MethodPost, path, good, &env)
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_readings" {
		t.Errorf("short row: status %d code %q, want 400 bad_readings", resp.StatusCode, env.Error.Code)
	}

	// Batch-limit checks apply exactly as on /estimate.
	big := make([]string, 65)
	for i := range big {
		big[i] = `[46,46,46,46,46,46,46,46]`
	}
	over := fmt.Sprintf(`{"config":{"policy":"threshold","ceiling_c":70},"readings":[%s]}`, strings.Join(big, ","))
	resp = doJSON(t, ts, http.MethodPost, path, over, &env)
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "batch_too_large" {
		t.Errorf("oversize batch: status %d code %q", resp.StatusCode, env.Error.Code)
	}
}

// TestGovernWireParity pins the two protocols to bit-identical decisions:
// fresh governors with the same config over the same monitor state, fed the
// same batch, must agree in every float bit and every cap level.
func TestGovernWireParity(t *testing.T) {
	ts := httptest.NewServer(newServer(1024))
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	path := "/v1/monitors/" + cr.ID + "/govern"
	cfg := &wire.GovernConfig{
		Policy:   "pi",
		CeilingC: 70,
		Ladder:   []float64{0.5, 0.7, 0.85, 1.0},
	}
	readings := hotAndCold(cr.M)

	// JSON arm (configures a fresh governor).
	jb, _ := json.Marshal(map[string]any{"config": cfg, "readings": readings})
	var jr governJSONResponse
	if resp := doJSON(t, ts, http.MethodPost, path, string(jb), &jr); resp.StatusCode != 200 {
		t.Fatalf("json govern status %d", resp.StatusCode)
	}

	// Binary arm re-sends the config: installing a fresh governor resets the
	// PI state, so both protocols start from identical control state.
	frame, err := wire.AppendGovernRequest(nil, &wire.GovernRequest{Config: cfg, Readings: readings})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postBinary(t, ts, path, frame)
	if resp.StatusCode != 200 {
		t.Fatalf("binary govern status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("binary govern content-type %q", ct)
	}
	br, err := wire.DecodeGovernResponse(body)
	if err != nil {
		t.Fatal(err)
	}

	if br.Quality.String() != jr.Quality {
		t.Errorf("quality: binary %q vs json %q", br.Quality, jr.Quality)
	}
	if br.Cores != jr.Cores || len(br.Decisions) != len(jr.Decisions) {
		t.Fatalf("shape: binary %d cores/%d decisions vs json %d/%d",
			br.Cores, len(br.Decisions), jr.Cores, len(jr.Decisions))
	}
	for i := range br.Decisions {
		b, j := br.Decisions[i], jr.Decisions[i]
		if math.Float64bits(b.MaxC) != math.Float64bits(j.MaxC) ||
			math.Float64bits(b.MinC) != math.Float64bits(j.MinC) ||
			math.Float64bits(b.MeanC) != math.Float64bits(j.MeanC) ||
			b.MaxCell != j.MaxCell {
			t.Errorf("decision %d summaries differ: binary %+v vs json %+v", i, b, j)
		}
		if len(b.Levels) != len(j.Levels) {
			t.Fatalf("decision %d level counts differ", i)
		}
		for c := range b.Levels {
			if b.Levels[c] != j.Levels[c] {
				t.Errorf("decision %d core %d: binary level %d vs json %d", i, c, b.Levels[c], j.Levels[c])
			}
		}
	}

	// Binary degenerate frames keep the JSON error envelope.
	resp, body = postBinary(t, ts, path, frame[:len(frame)-3])
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated frame status %d", resp.StatusCode)
	}
	var env errEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "bad_frame" {
		t.Errorf("truncated frame error envelope %s (err %v)", body, err)
	}
}

// appendLevels writes the levels as the integer writer would, one-digit
// levels and a long ladder's multi-digit ones alike.
func TestAppendLevels(t *testing.T) {
	for _, levels := range [][]int{nil, {3}, {0, 3, 1, 9}, {10}, {9, 10, 255, 0}, {0, 0, 0, 0, 0, 0, 0, 12}} {
		want := []byte("x")
		for k, l := range levels {
			if k > 0 {
				want = append(want, ',')
			}
			want = strconv.AppendInt(want, int64(l), 10)
		}
		if got := appendLevels([]byte("x"), levels); string(got) != string(want) {
			t.Errorf("appendLevels(%v) = %q, want %q", levels, got, want)
		}
	}
}
