package workload

import (
	"reflect"
	"strings"
	"testing"
)

func validSpec() *Spec {
	return &Spec{
		Name: "test",
		Phases: []Phase{{
			Rates: Rates{IdleToBusy: 0.2, BusyToIdle: 0.1, BusyToFPU: 0.05, FPUToBusy: 0.2},
		}},
		Migration: Migration{Period: 30},
	}
}

func TestValidateAcceptsBuiltins(t *testing.T) {
	for _, name := range Names() {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("builtin %q invalid: %v", name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // substring of the error
	}{
		{"no phases", func(s *Spec) { s.Phases = nil }, "no phases"},
		{"negative steps", func(s *Spec) { s.Phases[0].Steps = -1 }, "negative steps"},
		{"multi-phase zero steps", func(s *Spec) {
			s.Phases = append(s.Phases, Phase{Rates: s.Phases[0].Rates})
		}, "must be positive"},
		{"rate above one", func(s *Spec) { s.Phases[0].Rates.IdleToBusy = 1.5 }, "outside [0,1]"},
		{"negative rate", func(s *Spec) { s.Phases[0].Rates.FPUToBusy = -0.1 }, "outside [0,1]"},
		{"busy split exceeds one", func(s *Spec) {
			s.Phases[0].Rates.BusyToIdle, s.Phases[0].Rates.BusyToFPU = 0.7, 0.5
		}, "exceeds 1"},
		{"negative burst factor", func(s *Spec) { s.Arrival = &Arrival{BurstFactor: -2, PEnter: 0.1, PExit: 0.1} }, "negative"},
		{"arrival prob range", func(s *Spec) { s.Arrival = &Arrival{BurstFactor: 2, PEnter: 1.2, PExit: 0.1} }, "outside [0,1]"},
		{"migration rate range", func(s *Spec) { s.Migration.Rate = 2 }, "migration rate"},
		{"dvfs empty ladder", func(s *Spec) { s.DVFS = &DVFS{UpAt: 0.8, DownAt: 0.4} }, "no levels"},
		{"dvfs level range", func(s *Spec) { s.DVFS = &DVFS{Levels: []float64{0, 1}, UpAt: 0.8, DownAt: 0.4} }, "outside (0,1]"},
		{"dvfs not ascending", func(s *Spec) { s.DVFS = &DVFS{Levels: []float64{0.9, 0.5}, UpAt: 0.8, DownAt: 0.4} }, "ascending"},
		{"dvfs thresholds", func(s *Spec) { s.DVFS = &DVFS{Levels: []float64{0.5, 1}, UpAt: 0.4, DownAt: 0.8} }, "down_at < up_at"},
		{"dvfs hold", func(s *Spec) { s.DVFS = &DVFS{Levels: []float64{0.5, 1}, UpAt: 0.8, DownAt: 0.4, Hold: -1} }, "hold"},
		{"envelope kind", func(s *Spec) { s.Envelopes = []Envelope{{Kind: "gpu", Period: 10, Min: 0, Max: 1}} }, "unknown kind"},
		{"envelope period", func(s *Spec) { s.Envelopes = []Envelope{{Kind: "core", Period: 1, Min: 0, Max: 1}} }, "period"},
		{"envelope min/max", func(s *Spec) { s.Envelopes = []Envelope{{Kind: "core", Period: 10, Min: 0.9, Max: 0.2}} }, "min ≤ max"},
		{"envelope shape", func(s *Spec) { s.Envelopes = []Envelope{{Kind: "core", Period: 10, Min: 0, Max: 1, Shape: "triangle"}} }, "unknown shape"},
		{"envelope phase", func(s *Spec) { s.Envelopes = []Envelope{{Kind: "core", Period: 10, Min: 0, Max: 1, Phase: 1}} }, "phase"},
		{"load coupling", func(s *Spec) { s.LoadCoupling = 1.5 }, "load_coupling"},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted a bad spec", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestPhaseAtCyclesSchedule(t *testing.T) {
	s := Preset("mixed")
	if got := s.Cycle(); got != 600 {
		t.Fatalf("mixed cycle = %d, want 600", got)
	}
	for _, tc := range []struct {
		step int
		want string
	}{
		{0, "web"}, {299, "web"}, {300, "compute"}, {599, "compute"},
		{600, "web"}, {901, "compute"},
	} {
		if got := s.PhaseAt(tc.step).Name; got != tc.want {
			t.Fatalf("PhaseAt(%d) = %q, want %q", tc.step, got, tc.want)
		}
	}
	// Single free-running phase: always phase 0.
	w := Preset("web")
	if w.Cycle() != 0 {
		t.Fatalf("web cycle = %d, want 0", w.Cycle())
	}
	if w.PhaseAt(12345) != &w.Phases[0] {
		t.Fatal("free-running phase lookup broken")
	}
}

func TestJSONRoundTripBuiltins(t *testing.T) {
	// Every builtin (together they exercise phases, arrivals, migration
	// chains, DVFS and envelopes) must survive encode → decode unchanged.
	for _, name := range Names() {
		s, _ := Parse(name)
		data, err := s.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("%s: round trip changed the spec:\n%+v\nvs\n%+v", name, s, back)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode([]byte(`{"name":"x","phases":[{"rates":{}}],"frobnicate":1}`))
	if err == nil || !strings.Contains(err.Error(), "frobnicate") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestDecodeRejectsInvalidSpec(t *testing.T) {
	_, err := Decode([]byte(`{"name":"x","phases":[]}`))
	if err == nil || !strings.Contains(err.Error(), "no phases") {
		t.Fatalf("invalid spec not rejected: %v", err)
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	_, err := Decode([]byte(`{"name":"x","phases":[{"rates":{}}]} {"more":1}`))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing data not rejected: %v", err)
	}
}

func TestParseUnknownNameListsKnown(t *testing.T) {
	_, err := Parse("cryptomining")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, name := range []string{"web", "compute", "mixed", "idle"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list known scenario %q", err, name)
		}
	}
}

func TestParseListSkipsEmpty(t *testing.T) {
	specs, err := ParseList(" web, ,compute,")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "web" || specs[1].Name != "compute" {
		t.Fatalf("ParseList = %v", specs)
	}
	if _, err := ParseList("web,nope"); err == nil {
		t.Fatal("bad list accepted")
	}
}

func TestParseReturnsClones(t *testing.T) {
	a, _ := Parse("bursty")
	a.Phases[0].Rates.IdleToBusy = 0.99
	a.Arrival.BurstFactor = 123
	b, _ := Parse("bursty")
	if b.Phases[0].Rates.IdleToBusy == 0.99 || b.Arrival.BurstFactor == 123 {
		t.Fatal("Parse exposed shared registry state")
	}
}

func TestPresetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Preset("nope")
}
