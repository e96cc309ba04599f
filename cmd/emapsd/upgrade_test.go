package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	eigenmaps "repro"
	"repro/internal/store"
)

// TestWarmStartRetiredSolverField: every record written before the CG arm
// was removed carries "solver":"direct" in its metadata (and "cg" if the
// client asked for it). Both must warm-start and serve estimates byte for
// byte equal to the monitor they were written from.
func TestWarmStartRetiredSolverField(t *testing.T) {
	dir := t.TempDir()
	srv1 := durableServer(t, dir)
	ts1 := httptest.NewServer(srv1)
	cr := createMonitor(t, ts1, "")
	code, want := bodyString(t, ts1, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", estimateBody)
	if code != 200 {
		t.Fatalf("estimate: %d %s", code, want)
	}
	ts1.Close()

	rec, err := store.LoadFile(filepath.Join(dir, cr.ID+monitorSuffix))
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]string{cr.ID: "direct", "mon-90": "cg"}
	for id, solver := range ids {
		rec.Meta.MonitorID = id
		rec.Meta.Solver = solver
		if err := store.SaveFile(filepath.Join(dir, id+monitorSuffix), rec); err != nil {
			t.Fatal(err)
		}
	}

	srv2 := durableServer(t, dir)
	if loaded, skipped := srv2.warmStart(); loaded != 2 || skipped != 0 {
		t.Fatalf("warm start loaded=%d skipped=%d, want 2/0", loaded, skipped)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	for id, solver := range ids {
		code, got := bodyString(t, ts2, http.MethodPost, "/v1/monitors/"+id+"/estimate", estimateBody)
		if code != 200 || got != want {
			t.Fatalf("solver %q record %s: %d %s, want %s", solver, id, code, got, want)
		}
	}
}

// TestWarmStartRebuildsHostileIndex: a 24-byte index whose checksum-valid
// payload claims 2^27 entries must not abort the boot (it used to drive a
// 13 GiB allocation). The daemon rebuilds the index from a scan and serves.
func TestWarmStartRebuildsHostileIndex(t *testing.T) {
	dir := t.TempDir()
	srv1 := durableServer(t, dir)
	ts1 := httptest.NewServer(srv1)
	cr := createMonitor(t, ts1, "")
	ts1.Close()

	payload := binary.LittleEndian.AppendUint32(nil, 1<<27)
	idx := []byte("EMSI")
	idx = binary.LittleEndian.AppendUint32(idx, store.IndexVersion)
	idx = binary.LittleEndian.AppendUint64(idx, uint64(len(payload)))
	idx = append(idx, payload...)
	idx = binary.LittleEndian.AppendUint32(idx, crc32.ChecksumIEEE(payload))
	if len(idx) != 24 {
		t.Fatalf("hostile index is %d bytes, want 24", len(idx))
	}
	if err := os.WriteFile(filepath.Join(dir, indexName), idx, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := durableServer(t, dir)
	if loaded, skipped := srv2.warmStart(); loaded != 1 || skipped != 0 {
		t.Fatalf("warm start loaded=%d skipped=%d, want 1/0", loaded, skipped)
	}
	if got := srv2.metrics.indexRebuilds.Load(); got != 1 {
		t.Fatalf("index rebuilds = %d, want 1", got)
	}
	if _, err := store.LoadIndexFile(filepath.Join(dir, indexName)); err != nil {
		t.Fatalf("index not rewritten: %v", err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if code, body := bodyString(t, ts2, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", estimateBody); code != 200 {
		t.Fatalf("estimate after rebuild: %d %s", code, body)
	}
}

// TestFacadeLoadsDaemonModelRecord: the daemon's model-<hash>.emod is the
// facade's model format, so a library user can place sensors on a model the
// daemon trained — and gets the daemon's own placement.
func TestFacadeLoadsDaemonModelRecord(t *testing.T) {
	dir := t.TempDir()
	ts := httptest.NewServer(durableServer(t, dir))
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	files, err := filepath.Glob(filepath.Join(dir, "model-*"+modelSuffix))
	if err != nil || len(files) != 1 {
		t.Fatalf("model records %v (%v), want one", files, err)
	}
	m, err := eigenmaps.LoadModelFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	sensors, err := m.PlaceSensors(cr.M, eigenmaps.PlaceOptions{K: cr.K})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sensors) != fmt.Sprint(cr.Sensors) {
		t.Fatalf("facade placement %v, daemon placed %v", sensors, cr.Sensors)
	}
}

// TestFacadeLoadsDaemonMonitorRecord: the daemon's mon-<n>.emon is the
// facade's monitor format, so eigenmaps.LoadMonitorFile serves the daemon's
// own maps, bit for bit, for the same readings.
func TestFacadeLoadsDaemonMonitorRecord(t *testing.T) {
	dir := t.TempDir()
	ts := httptest.NewServer(durableServer(t, dir))
	defer ts.Close()
	cr := createMonitor(t, ts, "")
	rows := goodReadings(cr.M, 3, 1)
	var resp struct {
		Results []struct {
			Map []float64 `json:"map"`
		} `json:"results"`
	}
	body := `{"readings":` + readingsJSON(rows) + `,"include_maps":true}`
	if r := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+cr.ID+"/estimate", body, &resp); r.StatusCode != 200 || len(resp.Results) != len(rows) {
		t.Fatalf("estimate: status %d, %d results", r.StatusCode, len(resp.Results))
	}
	mon, err := eigenmaps.LoadMonitorFile(filepath.Join(dir, cr.ID+monitorSuffix))
	if err != nil {
		t.Fatal(err)
	}
	maps, err := mon.EstimateBatch(rows, eigenmaps.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range maps {
		want := resp.Results[i].Map
		if len(m) != len(want) {
			t.Fatalf("snapshot %d: facade map has %d cells, daemon %d", i, len(m), len(want))
		}
		for j := range m {
			if math.Float64bits(m[j]) != math.Float64bits(want[j]) {
				t.Fatalf("snapshot %d cell %d: facade %v, daemon %v", i, j, m[j], want[j])
			}
		}
	}
}
