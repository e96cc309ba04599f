package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	want := []string{"decode", "shard_route", "page_in", "solve", "drift_score", "adapt", "govern", "encode"}
	if int(NumStages) != len(want) {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Errorf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if got := Stage(200).String(); got != "stage_200" {
		t.Errorf("out-of-range stage = %q", got)
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("req-1", time.Time{})
	time.Sleep(time.Millisecond)
	tr.Mark(StageDecode)
	time.Sleep(time.Millisecond)
	tr.Mark(StageSolve)
	tr.Finish(200, 42, 0)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	if spans[0].Stage != StageDecode || spans[1].Stage != StageSolve {
		t.Fatalf("span order: %+v", spans)
	}
	for _, sp := range spans {
		if sp.Dur <= 0 {
			t.Errorf("stage %s: non-positive duration %v", sp.Stage, sp.Dur)
		}
	}
	if tr.Dur <= 0 || tr.Status != 200 || tr.Bytes != 42 {
		t.Errorf("Finish: dur=%v status=%d bytes=%d", tr.Dur, tr.Status, tr.Bytes)
	}
	if tot := tr.StageTotal(); tot != spans[0].Dur+spans[1].Dur {
		t.Errorf("StageTotal = %v, want %v", tot, spans[0].Dur+spans[1].Dur)
	}
}

func TestTraceRepeatStageAccumulates(t *testing.T) {
	tr := NewTrace("req-2", time.Time{})
	tr.record(StageSolve, 0, 2*time.Millisecond)
	tr.record(StageSolve, 5*time.Millisecond, 3*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].Dur != 5*time.Millisecond {
		t.Errorf("accumulated dur = %v, want 5ms", spans[0].Dur)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Mark(StageDecode)
	tr.Tail(StageEncode)
	tr.Finish(200, 0, 0)
	if tr.Spans() != nil || tr.StageTotal() != 0 {
		t.Error("nil trace should have no spans")
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if id == "" || seen[id] {
			t.Fatalf("duplicate or empty id %q at %d", id, i)
		}
		seen[id] = true
	}
}

func TestNewIDUniqueConcurrent(t *testing.T) {
	// 8 goroutines racing across many block boundaries: every id must
	// still be unique, including through lost block-install CAS races.
	const perG = 2000
	var wg sync.WaitGroup
	got := make([][]string, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]string, perG)
			for i := range ids {
				ids[i] = NewID()
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()
	seen := make(map[string]bool, 8*perG)
	for _, ids := range got {
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("duplicate id %q", id)
			}
			seen[id] = true
		}
	}
}

func TestRingRecentAndSlowest(t *testing.T) {
	r := NewRing(4, 2, nil)
	for i := 1; i <= 6; i++ {
		tr := NewTrace(fmt.Sprintf("req-%d", i), time.Time{})
		tr.Dur = time.Duration(i) * time.Millisecond
		tr.Status = 200
		r.Record(tr)
	}
	recent := r.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("recent len = %d, want 4", len(recent))
	}
	for i, want := range []string{"req-6", "req-5", "req-4", "req-3"} {
		if recent[i].ID != want {
			t.Errorf("recent[%d] = %s, want %s", i, recent[i].ID, want)
		}
	}
	slow := r.Slowest()
	if len(slow) != 2 || slow[0].ID != "req-6" || slow[1].ID != "req-5" {
		t.Fatalf("slowest = %+v", ids(slow))
	}

	// A fast request once the floor is set must not displace anything.
	fast := NewTrace("req-fast", time.Time{})
	fast.Dur = time.Microsecond
	r.Record(fast)
	if slow := r.Slowest(); len(slow) != 2 || slow[0].ID != "req-6" {
		t.Fatalf("slowest after fast = %+v", ids(slow))
	}
}

func ids(ts []Trace) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64, 8, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr := NewTrace(fmt.Sprintf("g%d-%d", g, i), time.Time{})
				tr.Dur = time.Duration(i%100) * time.Microsecond
				r.Record(tr)
				r.Recent(8)
				r.Slowest()
			}
		}(g)
	}
	wg.Wait()
	if len(r.Recent(64)) != 64 {
		t.Errorf("ring not full after 4000 records")
	}
	slow := r.Slowest()
	if len(slow) != 8 {
		t.Fatalf("slowest len = %d, want 8", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Dur > slow[i-1].Dur {
			t.Errorf("slowest not sorted: %v after %v", slow[i].Dur, slow[i-1].Dur)
		}
	}
}

func TestRingNilSafe(t *testing.T) {
	var r *Ring
	r.Record(NewTrace("x", time.Time{}))
	if r.Recent(4) != nil || r.Slowest() != nil {
		t.Error("nil ring should return nil slices")
	}
}

func TestHistObserveSnapshot(t *testing.T) {
	h := NewHist([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // <= 0.001
	h.Observe(5 * time.Millisecond)   // <= 0.01
	h.Observe(50 * time.Millisecond)  // <= 0.1
	h.Observe(2 * time.Second)        // +Inf
	h.Observe(-time.Second)           // clamped to 0, <= 0.001

	snap := h.Snapshot()
	wantCum := []int64{2, 3, 4}
	for i, w := range wantCum {
		if snap.Cumulative[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, snap.Cumulative[i], w)
		}
	}
	if snap.Count != 5 {
		t.Errorf("count = %d, want 5", snap.Count)
	}
	wantSum := 0.0005 + 0.005 + 0.05 + 2
	if diff := snap.Sum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum = %v, want %v", snap.Sum, wantSum)
	}
}

func TestHistConcurrent(t *testing.T) {
	h := NewHist([]float64{0.001, 0.01})
	var wg sync.WaitGroup
	const per = 1000
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != 8*per {
		t.Errorf("count = %d, want %d", snap.Count, 8*per)
	}
	if snap.Cumulative[len(snap.Cumulative)-1] > snap.Count {
		t.Errorf("cumulative exceeds count")
	}
}

func TestRegistryRoutesAndCodes(t *testing.T) {
	g := NewRegistry([]float64{0.01, 0.1})
	g.Route("estimate").Latency.Observe(time.Millisecond)
	g.Route("estimate").ObserveCode(200)
	g.Route("estimate").ObserveCode(200)
	g.Route("estimate").ObserveCode(404)
	g.Route("create").ObserveCode(201)

	snaps := g.Snapshot()
	if len(snaps) != 2 || snaps[0].Label != "create" || snaps[1].Label != "estimate" {
		t.Fatalf("snapshot labels: %+v", snaps)
	}
	codes := snaps[1].Codes
	if len(codes) != 2 || codes[0] != (CodeCount{200, 2}) || codes[1] != (CodeCount{404, 1}) {
		t.Fatalf("estimate codes = %+v", codes)
	}
	if snaps[1].Latency.Count != 1 {
		t.Errorf("latency count = %d", snaps[1].Latency.Count)
	}
}

func TestCodeCountsConcurrent(t *testing.T) {
	var c codeCounts
	var wg sync.WaitGroup
	codes := []int{200, 202, 400, 404, 421, 429, 500, 503}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				c.inc(codes[(g+i)%len(codes)])
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, cc := range c.snapshot() {
		total += cc.Count
	}
	if total != 8*400 {
		t.Errorf("total = %d, want %d", total, 8*400)
	}
}

func TestStageSet(t *testing.T) {
	r := NewRing(4, 1, []float64{0.001, 0.01})
	tr := NewTrace("x", time.Time{})
	tr.record(StageDecode, 0, 100*time.Microsecond)
	tr.record(StageSolve, 100*time.Microsecond, 5*time.Millisecond)
	r.Record(tr)
	r.Record(nil)
	(*Ring)(nil).Record(tr)

	if c := r.StageSnapshot(StageDecode).Count; c != 1 {
		t.Errorf("decode count = %d", c)
	}
	if c := r.StageSnapshot(StageSolve).Count; c != 1 {
		t.Errorf("solve count = %d", c)
	}
	if c := r.StageSnapshot(StageEncode).Count; c != 0 {
		t.Errorf("encode count = %d", c)
	}
}

// Concurrent traces land in the stage histograms without a lost count or
// nanosecond, whichever ring locks they take, while readers copy slots out.
func TestStageSetConcurrent(t *testing.T) {
	r := NewRing(16, 4, []float64{0.000001, 0.001})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr := NewTrace("x", time.Time{})
				tr.record(StageDecode, 0, time.Duration(i))
				tr.record(StageSolve, time.Duration(i), 2*time.Microsecond)
				tr.Dur = time.Duration(g*1000 + i)
				r.Record(tr)
				if i%50 == 0 {
					r.Recent(16)
				}
			}
		}(g)
	}
	wg.Wait()
	dec, sol := r.StageSnapshot(StageDecode), r.StageSnapshot(StageSolve)
	if dec.Count != 4000 || sol.Count != 4000 || dec.Cumulative[0] != 4000 || sol.Cumulative[0] != 0 {
		t.Fatalf("decode %+v, solve %+v: want 4000 observations each, decode all in the first bucket", dec, sol)
	}
	if want := 8 * 499 * 500 / 2; math.Abs(dec.Sum*1e9-float64(want)) > 0.5 {
		t.Fatalf("decode sum %v s, want %d ns", dec.Sum, want)
	}
}

const cleanExposition = `# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total{route="estimate",code="200"} 10
test_requests_total{route="estimate",code="404"} 2
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 3
test_latency_seconds_bucket{le="0.1"} 8
test_latency_seconds_bucket{le="+Inf"} 12
test_latency_seconds_sum 1.5
test_latency_seconds_count 12
# HELP test_up Up gauge.
# TYPE test_up gauge
test_up 1
`

func TestLintClean(t *testing.T) {
	if errs := Lint(strings.NewReader(cleanExposition)); len(errs) != 0 {
		t.Fatalf("clean exposition flagged: %v", errs)
	}
}

func TestLintCatches(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"missing help", "# TYPE x counter\nx 1\n", "no HELP"},
		{"missing type", "# HELP x X.\nx 1\n", "no TYPE"},
		{"duplicate series", "# HELP x X.\n# TYPE x counter\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n", "duplicate series"},
		{"bad type", "# HELP x X.\n# TYPE x countr\nx 1\n", "invalid TYPE"},
		{"non-cumulative", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n", "not cumulative"},
		{"missing inf", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_sum 1\nh_count 5\n", "+Inf"},
		{"count mismatch", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n", "_count 7 != +Inf bucket 5"},
		{"malformed", "# HELP x X.\n# TYPE x counter\nx{a=1} 1\n", "malformed label"},
		{"bad value", "# HELP x X.\n# TYPE x counter\nx one\n", "bad value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := Lint(strings.NewReader(tc.body))
			if len(errs) == 0 {
				t.Fatalf("lint missed %s", tc.name)
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("want error containing %q, got %v", tc.want, errs)
			}
		})
	}
}

func BenchmarkHistObserve(b *testing.B) {
	h := NewHist([]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})
	b.RunParallel(func(pb *testing.PB) {
		d := time.Microsecond
		for pb.Next() {
			h.Observe(d)
			d += 37 * time.Nanosecond
		}
	})
}

func BenchmarkRingRecord(b *testing.B) {
	r := NewRing(256, 32, nil)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tr := NewTrace("bench", time.Time{})
			tr.Dur = time.Duration(i%1000) * time.Microsecond
			r.Record(tr)
			i++
		}
	})
}

// NewTrace starts a trace for one request, anchored at now (zero means
// read the clock here). The daemon embeds its traces in per-request
// writer state and Resets them in place.
func NewTrace(id string, now time.Time) *Trace {
	t := new(Trace)
	t.Reset(id, now)
	return t
}
