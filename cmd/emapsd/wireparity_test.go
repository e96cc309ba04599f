package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/wire"
)

// postBinary sends one application/x-emaps estimate and returns the raw
// response and its status/content-type.
func postBinary(t *testing.T, ts *httptest.Server, path string, frame []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestBinaryEstimateParity is the wire-protocol acceptance pin: the same
// readings sent as JSON and as application/x-emaps decode to bit-identical
// summaries — same float64 bits in every field, same maps — because both
// protocols serialize the same computed structs. Covers both map modes.
func TestBinaryEstimateParity(t *testing.T) {
	ts := httptest.NewServer(newServer(1024))
	defer ts.Close()
	cr := createMonitor(t, ts, "")

	readings := [][]float64{
		{62, 61, 60, 59, 58, 57, 56, 55},
		{80.25, 61.5, 90.125, 59, 58, 57.75, 56, 55.0625},
	}
	for _, tc := range []struct {
		name string
		maps bool
	}{
		{"operator summaries", false},
		{"operator with maps", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jreq, err := json.Marshal(map[string]any{
				"readings": readings, "include_maps": tc.maps,
			})
			if err != nil {
				t.Fatal(err)
			}
			code, jbody := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", string(jreq))
			if code != 200 {
				t.Fatalf("JSON estimate: %d %s", code, jbody)
			}
			var jresp struct {
				Results []wire.Summary `json:"results"`
			}
			if err := json.Unmarshal([]byte(jbody), &jresp); err != nil {
				t.Fatal(err)
			}

			frame, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{
				Readings: readings, IncludeMaps: tc.maps,
			})
			if err != nil {
				t.Fatal(err)
			}
			resp, raw := postBinary(t, ts, "/v1/monitors/"+cr.ID+"/estimate", frame)
			if resp.StatusCode != 200 {
				t.Fatalf("binary estimate: %d %s", resp.StatusCode, raw)
			}
			if got := resp.Header.Get("Content-Type"); got != wire.ContentType {
				t.Fatalf("binary response Content-Type %q, want %q", got, wire.ContentType)
			}
			bresp, quality, err := wire.DecodeEstimateResponse(raw)
			if err != nil {
				t.Fatalf("decode binary response: %v", err)
			}
			if quality != wire.QualityOK {
				t.Fatalf("healthy monitor served quality %v, want ok", quality)
			}

			if len(bresp) != len(jresp.Results) {
				t.Fatalf("binary returned %d summaries, JSON %d", len(bresp), len(jresp.Results))
			}
			for i := range bresp {
				b, j := bresp[i], jresp.Results[i]
				if math.Float64bits(b.MaxC) != math.Float64bits(j.MaxC) ||
					math.Float64bits(b.MinC) != math.Float64bits(j.MinC) ||
					math.Float64bits(b.MeanC) != math.Float64bits(j.MeanC) ||
					b.MaxCell != j.MaxCell {
					t.Fatalf("summary %d differs across protocols:\nbinary %+v\njson   %+v", i, b, j)
				}
				if len(b.Map) != len(j.Map) {
					t.Fatalf("summary %d map length %d (binary) vs %d (json)", i, len(b.Map), len(j.Map))
				}
				for c := range b.Map {
					if math.Float64bits(b.Map[c]) != math.Float64bits(j.Map[c]) {
						t.Fatalf("summary %d map cell %d differs: %x vs %x",
							i, c, math.Float64bits(b.Map[c]), math.Float64bits(j.Map[c]))
					}
				}
				if tc.maps == (len(b.Map) == 0) {
					t.Fatalf("summary %d: include_maps=%v but map has %d cells", i, tc.maps, len(b.Map))
				}
			}
		})
	}
}

// resealed rewrites the payload word at payload offset off of a frame and
// recomputes the frame's CRC, so the check behind the checksum is what
// rejects it.
func resealed(frame []byte, off int, word uint32) []byte {
	f := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(f[16+off:], word)
	end := len(f) - 4
	binary.LittleEndian.PutUint32(f[end:], crc32.ChecksumIEEE(f[16:end]))
	return f
}

// hostileShapes derives, from an empty batch frame whose payload ends in
// its rows and cols words, the two batch shapes the decoders once let
// through: rows×cols that wraps a native-int size check (rows = 2³¹,
// cols = 2³⁰) and millions of empty rows carried by no bytes.
func hostileShapes(empty []byte) map[string][]byte {
	rows := len(empty) - 16 - 4 - 8 // payload offset of the rows word
	return map[string][]byte{
		"overflowing shape": resealed(resealed(empty, rows, 1<<31), rows+4, 1<<30),
		"empty rows":        resealed(empty, rows, 5_000_000),
	}
}

// wantBadFrame posts each frame and expects the 400 bad_frame JSON envelope.
func wantBadFrame(t *testing.T, ts *httptest.Server, path string, frames map[string][]byte) {
	t.Helper()
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			resp, raw := postBinary(t, ts, path, frame)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("error Content-Type %q, want JSON envelope", ct)
			}
			var env errEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("error body is not the JSON envelope: %v (%s)", err, raw)
			}
			if env.Error.Code != "bad_frame" {
				t.Fatalf("error code %q, want bad_frame", env.Error.Code)
			}
		})
	}
}

// TestBinaryEstimateErrors: protocol errors on the binary path keep the
// JSON error envelope — one error-handling code path for every client —
// and never take the daemon down.
func TestBinaryEstimateErrors(t *testing.T) {
	ts := httptest.NewServer(newServer(1024))
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	path := "/v1/monitors/" + cr.ID + "/estimate"

	good, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{
		Readings: [][]float64{{62, 61, 60, 59, 58, 57, 56, 55}},
	})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	frames := hostileShapes(empty)
	frames["garbage"] = []byte("application/x-emaps my foot")
	frames["truncated"] = good[:len(good)-3]
	frames["empty"] = nil
	frames["corrupt payload"] = append(append([]byte{}, good[:20]...), good[21:]...)
	frames["retired qr flag"] = resealed(good, 0, 1<<1)
	wantBadFrame(t, ts, path, frames)

	// Wrong-length readings reach the estimator and come back as the same
	// bad_readings a JSON client sees.
	short, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: [][]float64{{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postBinary(t, ts, path, short)
	var env errEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || resp.StatusCode != 400 || env.Error.Code != "bad_readings" {
		t.Fatalf("short readings: %d %s (%v), want 400 bad_readings", resp.StatusCode, raw, err)
	}

	// The daemon still serves after every malformed frame.
	if code, b := bodyString(t, ts, http.MethodPost, path, estimateBody); code != 200 {
		t.Fatalf("daemon unhealthy after malformed frames: %d %s", code, b)
	}
}

// TestBinaryGovernErrors is TestBinaryEstimateErrors' govern twin: hostile
// EMGQ frames are 400 bad_frame, and the route keeps serving.
func TestBinaryGovernErrors(t *testing.T) {
	ts := httptest.NewServer(newServer(1024))
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	path := "/v1/monitors/" + cr.ID + "/govern"

	empty, err := wire.AppendGovernRequest(nil, &wire.GovernRequest{})
	if err != nil {
		t.Fatal(err)
	}
	wantBadFrame(t, ts, path, hostileShapes(empty))

	good, err := wire.AppendGovernRequest(nil, &wire.GovernRequest{
		Config:   &wire.GovernConfig{Policy: "threshold", CeilingC: 70},
		Readings: [][]float64{{62, 61, 60, 59, 58, 57, 56, 55}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, raw := postBinary(t, ts, path, good); resp.StatusCode != 200 {
		t.Fatalf("daemon unhealthy after malformed frames: %d %s", resp.StatusCode, raw)
	}
}

// TestRetiredWorkersIgnored: a request that still carries the retired
// workers knob — the JSON key, or a nonzero reserved word after the flags
// of a binary estimate frame — gets the same bytes as one without it. Each
// pair goes to twin monitors, so their drift state advances alike.
func TestRetiredWorkersIgnored(t *testing.T) {
	ts := httptest.NewServer(newServer(64))
	defer ts.Close()
	with, without := createMonitor(t, ts, ""), createMonitor(t, ts, "")
	rows := readingsJSON(goodReadings(with.M, 3, 0))
	for _, tc := range []struct{ with, without string }{
		{`{"readings":` + rows + `,"workers":3}`, `{"readings":` + rows + `}`},
		{`{"workers":3,"readings":` + rows + `,"include_maps":true}`, `{"readings":` + rows + `,"include_maps":true}`},
	} {
		codeA, got := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+with.ID+"/estimate", tc.with)
		codeB, want := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+without.ID+"/estimate", tc.without)
		if codeA != http.StatusOK || codeB != http.StatusOK || got != want {
			t.Fatalf("%s: %d %s\n%s: %d %s", tc.with, codeA, got, tc.without, codeB, want)
		}
	}

	frame, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: goodReadings(with.M, 3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	old := resealed(frame, 4, 7) // payload offset 4: the reserved word
	respA, got := postBinary(t, ts, "/v1/monitors/"+with.ID+"/estimate", old)
	respB, want := postBinary(t, ts, "/v1/monitors/"+without.ID+"/estimate", frame)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("reserved word 7: status %d, 0: status %d; bodies equal: %v", respA.StatusCode, respB.StatusCode, bytes.Equal(got, want))
	}
}
