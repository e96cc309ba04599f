package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/drift"
	"repro/internal/wire"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{3.5}, 99); got != 3.5 {
		t.Errorf("singleton p99 = %g", got)
	}
}

func TestSummarizeLatencies(t *testing.T) {
	l := summarizeLatencies([]float64{0.010, 0.020, 0.030, 0.040})
	if l.P50 != 20 || l.Max != 40 || math.Abs(l.Mean-25) > 1e-12 {
		t.Fatalf("latencies %+v", l)
	}
	if z := summarizeLatencies(nil); z != (Latencies{}) {
		t.Fatalf("empty population: %+v", z)
	}
}

// stubDaemon fakes the few endpoints emapsload touches, counting requests
// and optionally failing a fraction of them.
func stubDaemon(t *testing.T, failEvery int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var estimates atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/monitors", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"id":"mon-9","n":120,"k":4,"m":8,"sensors":[1,2,3,4,5,6,7,8],"cond":1.5}`)
		default:
			fmt.Fprint(w, `{"monitors":[{"id":"mon-9","m":8}]}`)
		}
	})
	mux.HandleFunc("/v1/monitors/mon-9/estimate", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Readings [][]float64 `json:"readings"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Readings) == 0 {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		n := estimates.Add(1)
		if failEvery > 0 && n%int64(failEvery) == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Server-Timing", "decode;dur=0.2, solve;dur=1.5, encode;dur=0.3")
		fmt.Fprint(w, `{"results":[]}`)
	})
	mux.HandleFunc("/v1/monitors/mon-9", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"deleted":"mon-9"}`)
	})
	return httptest.NewServer(mux), &estimates
}

func TestRunAgainstStubDaemon(t *testing.T) {
	ts, estimates := stubDaemon(t, 0)
	defer ts.Close()
	rep, err := run(config{
		Addr: ts.URL, Endpoint: "estimate", Batch: 4,
		Concurrency: 3, Requests: 60, Duration: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 60 || rep.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want 60/0", rep.Requests, rep.Errors)
	}
	if rep.Snapshots != 60*4 {
		t.Fatalf("snapshots=%d, want %d", rep.Snapshots, 60*4)
	}
	if estimates.Load() != 60 {
		t.Fatalf("daemon saw %d estimates", estimates.Load())
	}
	if rep.LatencyMS.P50 <= 0 || rep.LatencyMS.P99 < rep.LatencyMS.P50 || rep.LatencyMS.Max < rep.LatencyMS.P99 {
		t.Fatalf("latency ordering broken: %+v", rep.LatencyMS)
	}
	if rep.RequestsPerS <= 0 || rep.SnapshotsPS <= 0 {
		t.Fatalf("throughput not reported: %+v", rep)
	}
	if rep.Monitor != "mon-9" || rep.Endpoint != "estimate" {
		t.Fatalf("report identity: %+v", rep)
	}
	st := rep.ServerTiming
	if st == nil || st.Requests != 60 {
		t.Fatalf("server timing not aggregated: %+v", st)
	}
	// The stub stamps fixed durations; means match them to accumulation
	// rounding.
	for stage, want := range map[string]float64{"decode": 0.2, "solve": 1.5, "encode": 0.3} {
		if got := st.MeanMS[stage]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("server timing mean for %s = %v, want %v", stage, got, want)
		}
	}
}

func TestRunCountsErrors(t *testing.T) {
	ts, _ := stubDaemon(t, 5) // every 5th estimate 500s
	defer ts.Close()
	rep, err := run(config{
		Addr: ts.URL, Endpoint: "estimate", Batch: 2,
		Concurrency: 2, Requests: 50, Duration: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 10 {
		t.Fatalf("errors=%d, want 10", rep.Errors)
	}
	if rep.Requests != 50 {
		t.Fatalf("requests=%d, want 50", rep.Requests)
	}
	if rep.Snapshots != 40*2 {
		t.Fatalf("snapshots=%d, want %d (errors excluded)", rep.Snapshots, 40*2)
	}
}

func TestRunExistingMonitor(t *testing.T) {
	ts, _ := stubDaemon(t, 0)
	defer ts.Close()
	rep, err := run(config{
		Addr: ts.URL, Monitor: "mon-9", Endpoint: "estimate", Batch: 1,
		Concurrency: 1, Requests: 5, Duration: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 5 || rep.Errors != 0 {
		t.Fatalf("report %+v", rep)
	}
	if _, err := run(config{
		Addr: ts.URL, Monitor: "mon-404", Endpoint: "estimate", Batch: 1,
		Concurrency: 1, Requests: 1, Duration: time.Minute,
	}); err == nil || !strings.Contains(err.Error(), "mon-404") {
		t.Fatalf("missing monitor error: %v", err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := run(config{Endpoint: "estimate", Batch: 1, Concurrency: 0}); err == nil {
		t.Fatal("concurrency 0 accepted")
	}
	for _, ep := range []string{"frobnicate", "simulate"} {
		if _, err := run(config{Endpoint: ep, Batch: 1, Concurrency: 1}); err == nil {
			t.Fatalf("unknown endpoint %q accepted", ep)
		}
	}
	if _, err := run(config{Endpoint: "estimate", Batch: 0, Concurrency: 1}); err == nil {
		t.Fatal("batch 0 accepted")
	}
}

func TestRequestBodyShapes(t *testing.T) {
	tg, err := finishTarget(config{Endpoint: "estimate", Batch: 3, Proto: "json"}, target{id: "mon-9", base: "http://x"}, 8)
	if err != nil || tg.perReq != 3 || tg.contentType != "application/json" {
		t.Fatalf("estimate body: per=%d ct=%q err=%v", tg.perReq, tg.contentType, err)
	}
	if tg.url != "http://x/v1/monitors/mon-9/estimate" {
		t.Fatalf("target url %q", tg.url)
	}
	var est struct {
		Readings [][]float64 `json:"readings"`
	}
	if err := json.Unmarshal(tg.body, &est); err != nil || len(est.Readings) != 3 || len(est.Readings[0]) != 8 {
		t.Fatalf("estimate body %s", tg.body)
	}
	for _, row := range est.Readings {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite synthetic reading")
			}
		}
	}

	// The binary body is the same readings on the application/x-emaps wire.
	btg, err := finishTarget(config{Endpoint: "estimate", Batch: 3, Proto: "binary"}, target{id: "mon-9", base: "http://x"}, 8)
	if err != nil || btg.contentType != wire.ContentType {
		t.Fatalf("binary target: ct=%q err=%v", btg.contentType, err)
	}
	var scratch wire.ReadingsBuf
	req, err := wire.DecodeEstimateRequest(btg.body, &scratch)
	if err != nil || len(req.Readings) != 3 || len(req.Readings[0]) != 8 {
		t.Fatalf("binary body does not decode to the batch: %v", err)
	}
	for i, row := range req.Readings {
		for j, v := range row {
			if v != est.Readings[i][j] {
				t.Fatalf("binary reading [%d][%d] = %g, json %g", i, j, v, est.Readings[i][j])
			}
		}
	}
}

// TestClassifyQuality pins the prefix classifier against both protocols:
// the JSON quality field (rendered first by the daemon), the binary flags
// word, and the absent-field default.
func TestClassifyQuality(t *testing.T) {
	jsonCases := []struct {
		body string
		want wire.Quality
	}{
		{`{"quality":"ok","results":[]}`, wire.QualityOK},
		{`{"quality":"drifting","results":[]}`, wire.QualityDrifting},
		{`{"quality":"degraded","results":[]}`, wire.QualityDegraded},
		{`{"results":[]}`, wire.QualityOK}, // pre-drift daemons
		{`{"filtered":true,"quality":"degraded"}`, wire.QualityDegraded},
		{``, wire.QualityOK},
	}
	for _, tc := range jsonCases {
		if got := classifyQuality([]byte(tc.body)); got != tc.want {
			t.Errorf("classifyQuality(%q) = %v, want %v", tc.body, got, tc.want)
		}
	}
	for _, q := range []wire.Quality{wire.QualityOK, wire.QualityDrifting, wire.QualityDegraded} {
		frame := wire.AppendEstimateResponse(nil, []wire.Summary{{MaxC: 1}}, q)
		n := len(frame)
		if n > 256 {
			n = 256
		}
		if got := classifyQuality(frame[:n]); got != q {
			t.Errorf("classifyQuality(binary %v) = %v", q, got)
		}
	}
}

// TestFaultBodyInjection: the per-request body carries the injected faults
// and the drift entry switches the workload family at its set time.
func TestFaultBodyInjection(t *testing.T) {
	faults, err := drift.ParseFaults("stuck:0:99,drift:web->compute@10s")
	if err != nil {
		t.Fatal(err)
	}
	inj := drift.NewInjector(faults, 1)
	cfg := config{Endpoint: "estimate", Batch: 3, Proto: "json"}

	body, ct, err := faultBody(cfg, 8, inj, 0)
	if err != nil || ct != "application/json" {
		t.Fatalf("faultBody: ct=%q err=%v", ct, err)
	}
	var req struct {
		Readings [][]float64 `json:"readings"`
	}
	if err := json.Unmarshal(body, &req); err != nil || len(req.Readings) != 3 {
		t.Fatalf("fault body %s: %v", body, err)
	}
	for i, row := range req.Readings {
		if len(row) != 8 || row[0] != 99 {
			t.Fatalf("row %d: stuck sensor not pinned: %v", i, row)
		}
	}

	// Before the switch the family is web; after, compute — the bodies must
	// differ in the healthy sensors.
	pre, _, _ := faultBody(cfg, 8, inj, 0)
	post, _, _ := faultBody(cfg, 8, inj, 30*time.Second)
	if string(pre) == string(post) {
		t.Fatal("drift fault did not change the workload pattern")
	}
	var postReq struct {
		Readings [][]float64 `json:"readings"`
	}
	if err := json.Unmarshal(post, &postReq); err != nil || postReq.Readings[0][0] != 99 {
		t.Fatalf("post-switch body lost the stuck sensor: %s", post)
	}

	// Binary fault bodies decode to the same corrupted readings.
	bin, ct, err := faultBody(config{Endpoint: "estimate", Batch: 2, Proto: "binary"}, 8, inj, 0)
	if err != nil || ct != wire.ContentType {
		t.Fatalf("binary fault body: ct=%q err=%v", ct, err)
	}
	var scratch wire.ReadingsBuf
	breq, err := wire.DecodeEstimateRequest(bin, &scratch)
	if err != nil || breq.Readings[0][0] != 99 {
		t.Fatalf("binary fault body: %v", err)
	}

	// Distinct families produce distinct shapes; repeats are deterministic.
	for _, fam := range []string{"web", "compute", "idle", "bursty", "wave", "dvfs", "mystery"} {
		a := syntheticReadings(2, 4, fam)
		b := syntheticReadings(2, 4, fam)
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("family %q not deterministic", fam)
				}
				if math.IsNaN(a[i][j]) || math.IsInf(a[i][j], 0) {
					t.Fatalf("family %q produced a non-finite reading", fam)
				}
			}
		}
	}
	web, compute := syntheticReadings(1, 8, "web"), syntheticReadings(1, 8, "compute")
	same := true
	for j := range web[0] {
		if web[0][j] != compute[0][j] {
			same = false
		}
	}
	if same {
		t.Fatal("web and compute families produced identical readings")
	}
}

// TestRunCountsQuality drives a stub daemon that degrades under a stuck
// sensor, and checks the run counts verdicts and rejects fault specs that
// cannot apply.
func TestRunCountsQuality(t *testing.T) {
	var estimates atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/monitors", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"id":"mon-9","m":8,"sensors":[1,2,3,4,5,6,7,8]}`)
	})
	mux.HandleFunc("/v1/monitors/mon-9/estimate", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Readings [][]float64 `json:"readings"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		// A drift-aware daemon in miniature: a pinned sensor 0 degrades the
		// verdict, clean readings stay ok.
		quality := "ok"
		if len(req.Readings) > 0 && req.Readings[0][0] == 99 {
			if estimates.Add(1)%2 == 0 {
				quality = "degraded"
			} else {
				quality = "drifting"
			}
		}
		fmt.Fprintf(w, `{"quality":%q,"results":[]}`, quality)
	})
	mux.HandleFunc("/v1/monitors/mon-9", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"deleted":"mon-9"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := run(config{
		Addr: ts.URL, Endpoint: "estimate", Batch: 2, Fault: "stuck:0:99",
		Concurrency: 2, Requests: 40, Duration: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Requests != 40 {
		t.Fatalf("requests=%d errors=%d, want 40/0", rep.Requests, rep.Errors)
	}
	if rep.Quality.OK != 0 || rep.Quality.Drifting != 20 || rep.Quality.Degraded != 20 {
		t.Fatalf("quality counts %+v, want 0/20/20", rep.Quality)
	}
	if rep.Fault != "stuck:0:99" {
		t.Fatalf("report fault %q", rep.Fault)
	}

	// A clean run against the same stub is all-ok.
	rep, err = run(config{
		Addr: ts.URL, Endpoint: "estimate", Batch: 2,
		Concurrency: 1, Requests: 10, Duration: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quality.OK != 10 || rep.Quality.Drifting != 0 || rep.Quality.Degraded != 0 {
		t.Fatalf("clean-run quality counts %+v, want 10/0/0", rep.Quality)
	}

	// A bad fault spec fails before any load.
	if _, err := run(config{Addr: ts.URL, Endpoint: "estimate", Batch: 1, Concurrency: 1, Fault: "bogus:1"}); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}

// TestPickerDistributions pins the monitor sampler: deterministic for a
// seed, uniform at s<=1, head-heavy at s>1, constant for one target.
func TestPickerDistributions(t *testing.T) {
	if newPicker(1, 2.0, 1)() != 0 {
		t.Fatal("single-target picker must return 0")
	}
	const n, draws = 10, 20_000
	uni := newPicker(n, 0, 7)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[uni()]++
	}
	for idx, c := range counts {
		if c < draws/n/2 || c > draws*2/n {
			t.Fatalf("uniform picker skewed: target %d drawn %d/%d (%v)", idx, c, draws, counts)
		}
	}
	zipf := newPicker(n, 1.5, 7)
	zcounts := make([]int, n)
	for i := 0; i < draws; i++ {
		zcounts[zipf()]++
	}
	if zcounts[0] < draws/3 {
		t.Fatalf("zipf picker head not hot: %v", zcounts)
	}
	if zcounts[n-1] >= zcounts[0] {
		t.Fatalf("zipf picker tail as hot as head: %v", zcounts)
	}
	// Same seed, same sequence.
	a, b := newPicker(n, 1.5, 42), newPicker(n, 1.5, 42)
	for i := 0; i < 100; i++ {
		if a() != b() {
			t.Fatal("picker is not deterministic for a fixed seed")
		}
	}
}

// fleetStub is a replica stub for multi-monitor runs: it allocates IDs with
// its own prefix (as a sharded daemon allocates only owned IDs) and serves
// estimates for any of them, counting requests and checking the wire
// content type.
func fleetStub(t *testing.T, prefix string, wantCT string) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var created, estimates atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/monitors", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			// Like a sharded replica, list only owned monitors: a fixed
			// two-monitor slice per stub.
			fmt.Fprintf(w, `{"monitors":[{"id":"%s-1","m":8},{"id":"%s-2","m":8}]}`, prefix, prefix)
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"id":"%s-%d","m":8,"sensors":[1,2,3,4,5,6,7,8]}`, prefix, created.Add(1))
	})
	mux.HandleFunc("/v1/monitors/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			fmt.Fprint(w, `{}`)
			return
		}
		if !strings.HasPrefix(r.URL.Path, "/v1/monitors/"+prefix+"-") {
			// Request routed to the wrong replica — exactly what the
			// per-target base must prevent.
			w.WriteHeader(http.StatusMisdirectedRequest)
			return
		}
		if got := r.Header.Get("Content-Type"); got != wantCT {
			t.Errorf("estimate Content-Type %q, want %q", got, wantCT)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		estimates.Add(1)
		fmt.Fprint(w, `{"results":[]}`)
	})
	return httptest.NewServer(mux), &created, &estimates
}

// TestRunFleetAcrossReplicas: -monitors spreads creates round-robin over
// -addrs, the zipfian sampler touches every target, and each estimate goes
// to the replica that created (owns) its monitor.
func TestRunFleetAcrossReplicas(t *testing.T) {
	tsA, createdA, estA := fleetStub(t, "mon-a", "application/json")
	tsB, createdB, estB := fleetStub(t, "mon-b", "application/json")
	defer tsA.Close()
	defer tsB.Close()
	rep, err := run(config{
		Addr: "ignored", Addrs: tsA.URL + "," + tsB.URL,
		Endpoint: "estimate", Batch: 2, Monitors: 4, Zipf: 1.3,
		Concurrency: 2, Requests: 200, Duration: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Requests != 200 {
		t.Fatalf("requests=%d errors=%d, want 200/0", rep.Requests, rep.Errors)
	}
	if rep.Monitors != 4 || rep.Zipf != 1.3 || len(rep.Replicas) != 2 {
		t.Fatalf("report fleet fields: %+v", rep)
	}
	if createdA.Load() != 2 || createdB.Load() != 2 {
		t.Fatalf("creates %d/%d, want round-robin 2/2", createdA.Load(), createdB.Load())
	}
	if estA.Load() == 0 || estB.Load() == 0 {
		t.Fatalf("estimates %d/%d — a replica saw no traffic", estA.Load(), estB.Load())
	}
	if estA.Load()+estB.Load() != 200 {
		t.Fatalf("stubs saw %d estimates, want 200", estA.Load()+estB.Load())
	}
}

// TestRunExistingFleet: a comma-separated -monitor list re-drives existing
// monitors, each pinned to the replica that lists (owns) it, creating and
// deleting nothing.
func TestRunExistingFleet(t *testing.T) {
	tsA, createdA, estA := fleetStub(t, "mon-a", "application/json")
	tsB, createdB, estB := fleetStub(t, "mon-b", "application/json")
	defer tsA.Close()
	defer tsB.Close()
	rep, err := run(config{
		Addr: "ignored", Addrs: tsA.URL + "," + tsB.URL,
		Monitor: "mon-a-1, mon-b-2,mon-a-2", Endpoint: "estimate",
		Batch: 2, Zipf: 1.3, Concurrency: 2, Requests: 100, Duration: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Requests != 100 {
		t.Fatalf("requests=%d errors=%d, want 100/0", rep.Requests, rep.Errors)
	}
	if rep.Monitors != 3 || rep.Monitor != "mon-a-1" {
		t.Fatalf("fleet identity (first id is rank 0): %+v", rep)
	}
	if createdA.Load() != 0 || createdB.Load() != 0 {
		t.Fatalf("existing-fleet run created monitors: %d/%d", createdA.Load(), createdB.Load())
	}
	if estA.Load() == 0 || estB.Load() == 0 {
		t.Fatalf("estimates %d/%d — a replica saw no traffic", estA.Load(), estB.Load())
	}
	if estA.Load()+estB.Load() != 100 {
		t.Fatalf("stubs saw %d estimates, want 100", estA.Load()+estB.Load())
	}

	// An id no replica lists fails loudly, naming the id.
	if _, err := run(config{
		Addr: tsA.URL, Monitor: "mon-a-1,mon-z-9", Endpoint: "estimate",
		Batch: 1, Concurrency: 1, Requests: 1, Duration: time.Minute,
	}); err == nil || !strings.Contains(err.Error(), "mon-z-9") {
		t.Fatalf("missing fleet member error: %v", err)
	}
	// Duplicate and empty ids are config errors, not silent dedup.
	if _, err := run(config{
		Addr: tsA.URL, Monitor: "mon-a-1,mon-a-1", Endpoint: "estimate",
		Batch: 1, Concurrency: 1,
	}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate id error: %v", err)
	}
	if _, err := run(config{
		Addr: tsA.URL, Monitor: "mon-a-1,,mon-a-2", Endpoint: "estimate",
		Batch: 1, Concurrency: 1,
	}); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty id error: %v", err)
	}
}

// TestRunBinaryProto: -proto binary sends application/x-emaps frames.
func TestRunBinaryProto(t *testing.T) {
	ts, _, est := fleetStub(t, "mon-a", wire.ContentType)
	defer ts.Close()
	rep, err := run(config{
		Addr: ts.URL, Endpoint: "estimate", Proto: "binary", Batch: 2,
		Concurrency: 1, Requests: 10, Duration: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || est.Load() != 10 || rep.Proto != "binary" {
		t.Fatalf("binary run: errors=%d est=%d proto=%q", rep.Errors, est.Load(), rep.Proto)
	}
	// Binary is estimate-only.
	if _, err := run(config{Addr: ts.URL, Endpoint: "track", Proto: "binary", Batch: 1, Concurrency: 1}); err == nil {
		t.Fatal("binary track accepted")
	}
}

func TestRenderFormats(t *testing.T) {
	rep := &Report{
		Endpoint: "estimate", Concurrency: 4, Batch: 16,
		DurationS: 2, Requests: 100, Errors: 0, Snapshots: 1600,
		RequestsPerS: 50, SnapshotsPS: 800,
		LatencyMS: Latencies{Mean: 1.5, P50: 1.2, P90: 2.0, P99: 3.5, Max: 4.0},
		ServerTiming: &ServerTimingReport{
			Requests: 100,
			MeanMS:   map[string]float64{"solve": 1.1, "decode": 0.2},
		},
	}

	blob, err := renderReport(rep, "json")
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil || back.SnapshotsPS != 800 {
		t.Fatalf("json round-trip: %v %+v", err, back)
	}

	blob, err = renderReport(rep, "prom")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"emapsload_snapshots_per_second 800",
		"emapsload_requests_total 100",
		`emapsload_latency_ms{quantile="0.99"} 3.5`,
		"emapsload_server_timing_requests_total 100",
		`emapsload_server_timing_ms{stage="decode"} 0.2` + "\n" + `emapsload_server_timing_ms{stage="solve"} 1.1`,
	} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("prom output missing %q:\n%s", want, blob)
		}
	}

	blob, err = renderReport(rep, "bench")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Name    string             `json:"name"`
			Package string             `json:"package"`
			Iters   int64              `json:"iterations"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"results"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil || len(doc.Results) != 1 {
		t.Fatalf("bench document: %v\n%s", err, blob)
	}
	res := doc.Results[0]
	if res.Name != "BenchmarkServingLoad/endpoint=estimate" || res.Package != "cmd/emapsload" || res.Iters != 100 {
		t.Fatalf("bench identity: %+v", res)
	}
	if res.Metrics["snapshots/s"] != 800 || res.Metrics["p99_ms"] != 3.5 {
		t.Fatalf("bench metrics: %+v", res.Metrics)
	}

	if _, err := renderReport(rep, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
