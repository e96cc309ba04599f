package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wire"
)

// padTo pads doc to exactly n bytes: a JSON object with whitespace before
// its closing brace, so that a decoder must read all of it, and anything
// else (a binary frame) with trailing bytes.
func padTo(t *testing.T, doc string, n int64) []byte {
	t.Helper()
	if int64(len(doc)) > n {
		t.Fatalf("document of %d bytes exceeds %d", len(doc), n)
	}
	pad := bytes.Repeat([]byte{' '}, int(n)-len(doc))
	if strings.HasSuffix(doc, "}") {
		return append(append([]byte(doc[:len(doc)-1]), pad...), '}')
	}
	return append([]byte(doc), pad...)
}

// serveBody serves one POST in-process and returns the status, the error
// code (empty on success) and the bytes allocated while serving it. A
// negative length hides the body's size, as a chunked upload does.
func serveBody(t *testing.T, srv *server, path, contentType string, body []byte, length int64) (int, string, uint64) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.ContentLength = length
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	var env errEnvelope
	if w.Code >= 400 {
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: status %d, body %q is not the error envelope", path, w.Code, w.Body.Bytes())
		}
	}
	return w.Code, env.Error.Code, after.TotalAlloc - before.TotalAlloc
}

// countingReader counts the bytes a handler reads from a body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Every POST route bounds its body before buffering it: one byte over the
// bound is answered 413 body_too_large, allocating less than the bound
// when the length is declared and reading no further than the bound when
// it is not; a body exactly at the bound gets the answer it always got.
// Both protocols are covered on the monitor routes.
func TestBodyLimit(t *testing.T) {
	srv := newServer(8)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cr := createMonitor(t, ts, `,"tracking":true`)
	base := "/v1/monitors/" + cr.ID
	if resp := doJSON(t, ts, http.MethodPost, base+"/govern",
		`{"config":{"policy":"hysteresis","ceiling_c":70},"readings":[[1,2,3,4,5,6,7,8]]}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("installing the governor: status %d", resp.StatusCode)
	}
	srv.mu.Lock()
	e := srv.monitors[cr.ID]
	srv.mu.Unlock()
	rs, err := srv.resident(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	limit := srv.bodyLimit(rs)
	if want := int64(8*(8*bodyBytesPerReading+bodyBytesPerRow) + bodySlack); limit != want {
		t.Fatalf("bound %d bytes for -max-batch 8 and M 8, want %d", limit, want)
	}
	row := strings.TrimSuffix(strings.Repeat("61.234567890123456,", cr.M), ",")
	readings := `{"readings":[` + strings.TrimSuffix(strings.Repeat("["+row+"],", 8), ",") + `]}`
	frame, err := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Readings: [][]float64{make([]float64, cr.M)}})
	if err != nil {
		t.Fatal(err)
	}
	create := fmt.Sprintf(createBody, "")

	cases := []struct {
		name, path, contentType string
		atBound                 []byte
		over                    []byte
		limit                   int64
		status                  int    // the answer at the bound
		code                    string // its error code, if any
	}{
		{"estimate/json", base + "/estimate", "", padTo(t, readings, limit), padTo(t, readings, limit+1), limit, http.StatusOK, ""},
		{"track/json", base + "/track", "", padTo(t, readings, limit), padTo(t, readings, limit+1), limit, http.StatusOK, ""},
		{"govern/json", base + "/govern", "", padTo(t, readings, limit), padTo(t, readings, limit+1), limit, http.StatusOK, ""},
		// A binary frame is exact-length, so a padded one is malformed:
		// at the bound it is still decoded, and rejected as it always was.
		{"estimate/binary", base + "/estimate", wire.ContentType, padTo(t, string(frame), limit), padTo(t, string(frame), limit+1), limit, http.StatusBadRequest, "bad_frame"},
		{"govern/binary", base + "/govern", wire.ContentType, padTo(t, string(frame), limit), padTo(t, string(frame), limit+1), limit, http.StatusBadRequest, "bad_frame"},
		{"create", "/v1/monitors", "", padTo(t, create, maxCreateBody), padTo(t, create, maxCreateBody+1), maxCreateBody, http.StatusCreated, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if status, code, _ := serveBody(t, srv, c.path, c.contentType, c.atBound, int64(len(c.atBound))); status != c.status || code != c.code {
				t.Errorf("body at the bound: status %d code %q, want %d %q", status, code, c.status, c.code)
			}
			status, code, alloc := serveBody(t, srv, c.path, c.contentType, c.over, int64(len(c.over)))
			if status != http.StatusRequestEntityTooLarge || code != "body_too_large" {
				t.Errorf("one byte over: status %d code %q, want 413 body_too_large", status, code)
			}
			if alloc > uint64(c.limit) {
				t.Errorf("one byte over allocated %d bytes, more than the %d-byte bound", alloc, c.limit)
			}
			// Undeclared length: the read stops at the bound.
			body := &countingReader{r: bytes.NewReader(c.over)}
			req := httptest.NewRequest(http.MethodPost, c.path, body)
			req.ContentLength = -1
			if c.contentType != "" {
				req.Header.Set("Content-Type", c.contentType)
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), `"body_too_large"`) {
				t.Errorf("one byte over, length undeclared: status %d %s", w.Code, w.Body.Bytes())
			}
			if body.n > c.limit+1 {
				t.Errorf("length undeclared: read %d bytes against a %d-byte bound", body.n, c.limit)
			}
		})
	}
}
