package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
)

// seedLargeStore clones mon-1's record under n monitor IDs and writes a
// matching index, simulating a store grown to n monitors without paying n
// trainings (or n fsyncs — records are written raw, the envelope bytes are
// already durable-format). Returns the IDs.
func seedLargeStore(t *testing.T, dir string, n int) []string {
	t.Helper()
	srv1 := durableServer(t, dir)
	ts1 := httptest.NewServer(srv1)
	cr := createMonitor(t, ts1, "")
	ts1.Close()
	rec, err := store.LoadFile(filepath.Join(dir, cr.ID+monitorSuffix))
	if err != nil {
		t.Fatal(err)
	}
	rs, key, err := buildMonitorState(rec)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{cr.ID}
	idx := &store.Index{Entries: []store.IndexEntry{descFor(rs, cr.ID+monitorSuffix, key)}}
	var buf bytes.Buffer
	for i := 2; i <= n; i++ {
		id := fmt.Sprintf("mon-%d", i)
		rec.Meta.MonitorID = id
		rs.meta.MonitorID = id
		buf.Reset()
		if err := store.Encode(&buf, rec); err != nil {
			t.Fatal(err)
		}
		file := id + monitorSuffix
		if err := os.WriteFile(filepath.Join(dir, file), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		idx.Entries = append(idx.Entries, descFor(rs, file, key))
		ids = append(ids, id)
	}
	if err := store.SaveIndexFile(filepath.Join(dir, indexName), idx); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestPagedBootOpensResidentPlusIndex is the warm-boot acceptance pin: a
// 10k-monitor store boots with exactly one file open (the index), every
// monitor is listed and servable, and estimating against R monitors costs
// exactly R record opens — O(resident + one index read), not O(corpus).
// Paged estimates are bit-identical to the record's original serving.
func TestPagedBootOpensResidentPlusIndex(t *testing.T) {
	const corpus = 10_000
	dir := t.TempDir()
	ids := seedLargeStore(t, dir, corpus)

	srv := durableServer(t, dir)
	if loaded, skipped := srv.warmStart(); loaded != corpus || skipped != 0 {
		t.Fatalf("warm start loaded=%d skipped=%d, want %d/0", loaded, skipped, corpus)
	}
	if opens := srv.fileOpens.Load(); opens != 1 {
		t.Fatalf("boot performed %d file opens, want exactly 1 (the index)", opens)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// All records are clones of mon-1, so every paged estimate must be
	// byte-identical to mon-1's.
	code, want := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+ids[0]+"/estimate", estimateBody)
	if code != 200 {
		t.Fatalf("estimate on %s: %d %s", ids[0], code, want)
	}
	touched := []string{ids[1], ids[corpus/2], ids[corpus-1], ids[7], ids[4242]}
	for _, id := range touched {
		code, got := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+id+"/estimate", estimateBody)
		if code != 200 {
			t.Fatalf("estimate on %s: %d %s", id, code, got)
		}
		if got != want {
			t.Fatalf("paged estimate for %s differs from eager serving:\n got %s\nwant %s", id, got, want)
		}
	}
	// 1 index read + one record open per touched monitor (including ids[0]).
	wantOpens := int64(1 + 1 + len(touched))
	if opens := srv.fileOpens.Load(); opens != wantOpens {
		t.Fatalf("after %d estimates: %d file opens, want %d", len(touched)+1, srv.fileOpens.Load(), wantOpens)
	}
	if got := srv.metrics.monitorsLoaded.Load(); got != int64(1+len(touched)) {
		t.Fatalf("monitors_loaded %d, want %d page-ins", got, 1+len(touched))
	}
	// A re-estimate on a resident monitor opens nothing.
	bodyString(t, ts, http.MethodPost, "/v1/monitors/"+touched[0]+"/estimate", estimateBody)
	if opens := srv.fileOpens.Load(); opens != wantOpens {
		t.Fatalf("resident re-estimate opened a file (%d opens, want %d)", opens, wantOpens)
	}
	// Listing the whole corpus is served from the index alone.
	var list struct {
		Monitors []monitorInfo `json:"monitors"`
	}
	doJSON(t, ts, http.MethodGet, "/v1/monitors", "", &list)
	if len(list.Monitors) != corpus {
		t.Fatalf("listing has %d monitors, want %d", len(list.Monitors), corpus)
	}
	if opens := srv.fileOpens.Load(); opens != wantOpens {
		t.Fatalf("listing opened files (%d opens, want %d)", opens, wantOpens)
	}
}

// TestCorruptIndexRebuildsFromScan: every way the index can rot — truncated,
// bit-flipped, or gone — downgrades boot to the directory scan, which serves
// everything and writes a fresh valid index. Logged, never fatal.
func TestCorruptIndexRebuildsFromScan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, path string)
		rebuild int64 // expected emapsd_index_rebuilds_total
	}{
		{"truncated", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"bit flip", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-7] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"deleted", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, 0}, // a missing index is a first boot, not damage
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ids := seedLargeStore(t, dir, 3)
			tc.corrupt(t, filepath.Join(dir, indexName))

			srv := durableServer(t, dir)
			if loaded, skipped := srv.warmStart(); loaded != 3 || skipped != 0 {
				t.Fatalf("rebuild-from-scan loaded=%d skipped=%d, want 3/0", loaded, skipped)
			}
			if got := srv.metrics.indexRebuilds.Load(); got != tc.rebuild {
				t.Fatalf("index_rebuilds %d, want %d", got, tc.rebuild)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			for _, id := range ids {
				if code, b := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+id+"/estimate", estimateBody); code != 200 {
					t.Fatalf("estimate on %s after rebuild: %d %s", id, code, b)
				}
			}
			// The scan rewrote a valid index: the next boot pages again.
			srv2 := durableServer(t, dir)
			if loaded, _ := srv2.warmStart(); loaded != 3 {
				t.Fatalf("boot after rebuild loaded=%d, want 3", loaded)
			}
			if opens := srv2.fileOpens.Load(); opens != 1 {
				t.Fatalf("boot after rebuild performed %d opens, want 1 (the rewritten index)", opens)
			}
		})
	}
}

// TestIndexedRecordDeleted covers both halves of index/record disagreement:
// a record missing at boot is dropped from the registry (never 404s at
// page-in), and a record deleted *after* boot surfaces as a typed
// *store.Error and a 404 record_missing — not a 500, not a panic.
func TestIndexedRecordDeleted(t *testing.T) {
	dir := t.TempDir()
	ids := seedLargeStore(t, dir, 3)

	// Deleted before boot: reconciled away.
	if err := os.Remove(filepath.Join(dir, ids[1]+monitorSuffix)); err != nil {
		t.Fatal(err)
	}
	srv := durableServer(t, dir)
	if loaded, skipped := srv.warmStart(); loaded != 2 || skipped != 0 {
		t.Fatalf("boot with a deleted record loaded=%d skipped=%d, want 2/0", loaded, skipped)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var env errEnvelope
	if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+ids[1]+"/estimate", estimateBody, &env); resp.StatusCode != 404 || env.Error.Code != "not_found" {
		t.Fatalf("dropped monitor: %d %+v, want 404 not_found", resp.StatusCode, env)
	}

	// Deleted after boot, before first touch: typed error, 404, daemon keeps
	// serving its neighbors.
	if err := os.Remove(filepath.Join(dir, ids[2]+monitorSuffix)); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	entry := srv.monitors[ids[2]]
	srv.mu.Unlock()
	_, err := srv.resident(entry, nil)
	var serr *store.Error
	if !errors.As(err, &serr) {
		t.Fatalf("page-in of a vanished record returned %T (%v), want *store.Error", err, err)
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("page-in error %v does not unwrap to fs.ErrNotExist", err)
	}
	env = errEnvelope{}
	if resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+ids[2]+"/estimate", estimateBody, &env); resp.StatusCode != 404 || env.Error.Code != "record_missing" {
		t.Fatalf("vanished record: %d %+v, want 404 record_missing", resp.StatusCode, env)
	}
	if code, _ := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+ids[0]+"/estimate", estimateBody); code != 200 {
		t.Fatalf("healthy neighbor failed after a vanished record: %d", code)
	}
}

// TestMonitorLRUEviction: -max-monitors bounds the resident set; the LRU
// monitor pages out (state dropped, stub kept) and pages back in on its
// next touch, bit-identically.
func TestMonitorLRUEviction(t *testing.T) {
	dir := t.TempDir()
	ids := seedLargeStore(t, dir, 3)

	srv := durableServer(t, dir)
	srv.maxMonitors = 2
	if loaded, _ := srv.warmStart(); loaded != 3 {
		t.Fatalf("warm start loaded=%d", loaded)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	want := ""
	for i, id := range ids { // page all three in; cap 2 forces one eviction
		code, got := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+id+"/estimate", estimateBody)
		if code != 200 {
			t.Fatalf("estimate on %s: %d %s", id, code, got)
		}
		if i == 0 {
			want = got
		}
		time.Sleep(2 * time.Millisecond) // order lastUse stamps
	}
	if got := srv.metrics.monitorsEvicted.Load(); got != 1 {
		t.Fatalf("monitors_evicted %d, want 1", got)
	}
	srv.mu.Lock()
	residents := len(srv.residents)
	first := srv.monitors[ids[0]]
	srv.mu.Unlock()
	if residents != 2 {
		t.Fatalf("%d residents, want 2 (cap)", residents)
	}
	if first.res.Load() != nil {
		t.Fatalf("LRU monitor %s still resident after eviction", ids[0])
	}
	// The evicted monitor pages back in and serves identically.
	code, got := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+ids[0]+"/estimate", estimateBody)
	if code != 200 || got != want {
		t.Fatalf("re-page-in of %s: %d\n got %s\nwant %s", ids[0], code, got, want)
	}
	if got := srv.metrics.monitorsLoaded.Load(); got != 4 {
		t.Fatalf("monitors_loaded %d, want 4 (3 page-ins + 1 re-page-in)", got)
	}
}
