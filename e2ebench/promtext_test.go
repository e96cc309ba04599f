package main

import (
	"math"
	"testing"
)

// metricsBefore and metricsAfter are two scrapes in emapsd's exposition
// shape: route and stage histograms, counters, labeled gauges.
const metricsBefore = `# HELP emapsd_requests_total Requests served, by route and status code.
# TYPE emapsd_requests_total counter
emapsd_requests_total{route="estimate",code="200"} 10
# HELP emapsd_request_duration_seconds Request latency, by route.
# TYPE emapsd_request_duration_seconds histogram
emapsd_request_duration_seconds_bucket{route="estimate",le="0.0005"} 2
emapsd_request_duration_seconds_bucket{route="estimate",le="+Inf"} 10
emapsd_request_duration_seconds_sum{route="estimate"} 0.01
emapsd_request_duration_seconds_count{route="estimate"} 10
emapsd_stage_duration_seconds_sum{stage="solve"} 0.004
emapsd_stage_duration_seconds_count{stage="solve"} 10
emapsd_stage_duration_seconds_sum{stage="decode"} 0.001
emapsd_stage_duration_seconds_count{stage="decode"} 10
# HELP emapsd_adaptations_total Monitor hot-swaps.
# TYPE emapsd_adaptations_total counter
emapsd_adaptations_total 1
emapsd_drift_state{monitor="mon-1"} 0
emapsd_gc_pause_seconds_total 0.0001
emapsd_gc_cycles_total 3
`

const metricsAfter = `emapsd_requests_total{route="estimate",code="200"} 110
emapsd_requests_total{route="govern",code="200"} 50
emapsd_request_duration_seconds_sum{route="estimate"} 0.11
emapsd_request_duration_seconds_count{route="estimate"} 110
emapsd_request_duration_seconds_sum{route="govern"} 0.1
emapsd_request_duration_seconds_count{route="govern"} 50
emapsd_stage_duration_seconds_sum{stage="solve"} 0.084
emapsd_stage_duration_seconds_count{stage="solve"} 160
emapsd_stage_duration_seconds_sum{stage="decode"} 0.009
emapsd_stage_duration_seconds_count{stage="decode"} 160
emapsd_adaptations_total 4
emapsd_drift_state{monitor="mon-1"} 1
emapsd_drift_state{monitor="mon-2"} 2
emapsd_gc_pause_seconds_total 0.0011
emapsd_gc_cycles_total 13
`

func mustParse(t *testing.T, text string) promSnapshot {
	t.Helper()
	s, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPromDelta(t *testing.T) {
	before, after := mustParse(t, metricsBefore), mustParse(t, metricsAfter)
	d := after.delta(before)
	for _, c := range []struct {
		got, want float64
		what      string
	}{
		{d.value("emapsd_stage_duration_seconds_sum", "stage", "solve"), 0.08, "solve sum"},
		{d.value("emapsd_stage_duration_seconds_count", "stage", "solve"), 150, "solve count"},
		{d.value("emapsd_stage_duration_seconds_sum", "stage", "decode"), 0.008, "decode sum"},
		{d.value("emapsd_request_duration_seconds_sum", "route", "estimate"), 0.1, "estimate sum"},
		{d.value("emapsd_request_duration_seconds_count", "route", "govern"), 50, "govern count (new series)"},
		{d.value("emapsd_requests_total", "route", "estimate", "code", "200"), 100, "requests, labels in any order"},
		{d.value("emapsd_requests_total", "code", "200", "route", "estimate"), 100, "requests, label order swapped"},
		{d.value("emapsd_adaptations_total"), 3, "counter"},
		{d.value("emapsd_gc_cycles_total"), 10, "gc cycles"},
		{d.value("emapsd_gc_pause_seconds_total"), 0.001, "gc pause"},
		{d.value("emapsd_stage_duration_seconds_sum", "stage", "page_in"), 0, "absent series"},
	} {
		if !near(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
	mean, n := d.histMean("emapsd_request_duration_seconds", "route", "govern")
	if n != 50 || !near(mean, 2) {
		t.Errorf("govern histMean = %v ms over %v, want 2 ms over 50", mean, n)
	}
	if mean, n := d.histMean("emapsd_request_duration_seconds", "route", "track"); mean != 0 || n != 0 {
		t.Errorf("absent route histMean = %v over %v", mean, n)
	}
	if drifting, degraded := driftGauges(after); drifting != 1 || degraded != 1 {
		t.Errorf("driftGauges = %d drifting, %d degraded", drifting, degraded)
	}
}

func TestPromLabelEscapesAndErrors(t *testing.T) {
	s := mustParse(t, `x{a="q\"uo\\te",b="n\nl"} 1.5 1700000000000`+"\n"+`bare 2`)
	if got := s.value("x", "a", `q"uo\te`, "b", "n\nl"); got != 1.5 {
		t.Errorf("escaped labels = %v, want 1.5 (keys %v)", got, s)
	}
	if got := s.value("bare"); got != 2 {
		t.Errorf("bare = %v", got)
	}
	for _, bad := range []string{`x{a="1"`, `x{a=1} 2`, `x 1e`, `x{a="1"}`, `{a="1"} 2`} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", bad)
		}
	}
}
