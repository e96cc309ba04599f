package governor

import (
	"math"
	"testing"
)

// policyNames lists every built-in policy NewPolicy accepts.
var policyNames = []string{"hysteresis", "pi", "threshold"}

func TestValidateLadder(t *testing.T) {
	cases := []struct {
		name   string
		ladder []float64
		ok     bool
	}{
		{"default", DefaultLadder, true},
		{"single", []float64{1.0}, true},
		{"empty", nil, false},
		{"descending", []float64{1.0, 0.5}, false},
		{"duplicate", []float64{0.5, 0.5, 1.0}, false},
		{"zero", []float64{0, 1}, false},
		{"above-one", []float64{0.5, 1.5}, false},
		{"nan", []float64{0.5, math.NaN()}, false},
	}
	for _, c := range cases {
		if err := ValidateLadder(c.ladder); (err == nil) != c.ok {
			t.Errorf("%s: ValidateLadder = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewPolicyDerivesSetpoints(t *testing.T) {
	p, err := NewPolicy("threshold", Params{CeilingC: 80})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.(*Threshold).TripC; got != 79 {
		t.Errorf("threshold trip = %v, want ceiling-1 = 79", got)
	}
	p, err = NewPolicy("hysteresis", Params{CeilingC: 80})
	if err != nil {
		t.Fatal(err)
	}
	h := p.(*Hysteresis)
	if h.SetC != 79 || h.ClearC != 76 {
		t.Errorf("hysteresis band = (%v, %v), want (76, 79)", h.ClearC, h.SetC)
	}
	p, err = NewPolicy("pi", Params{CeilingC: 80})
	if err != nil {
		t.Fatal(err)
	}
	pi := p.(*PICap)
	if pi.TargetC != 78 || pi.Kp != 0.10 || pi.Ki != 0.02 {
		t.Errorf("pi defaults = (%v, %v, %v), want (78, 0.10, 0.02)", pi.TargetC, pi.Kp, pi.Ki)
	}
	if _, err := NewPolicy("nope", Params{CeilingC: 80}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewPolicy("pi", Params{}); err == nil {
		t.Error("zero ceiling accepted")
	}
}

func TestThresholdTrips(t *testing.T) {
	p := &Threshold{TripC: 80}
	if err := p.Reset(2, DefaultLadder); err != nil {
		t.Fatal(err)
	}
	levels := []int{3, 3}
	p.Act([]float64{85, 70}, levels)
	if levels[0] != 0 || levels[1] != 3 {
		t.Errorf("levels = %v, want [0 3]", levels)
	}
	// Memoryless: one degree below trip immediately releases.
	p.Act([]float64{79.9, 70}, levels)
	if levels[0] != 3 {
		t.Errorf("level after cooling = %d, want nominal 3", levels[0])
	}
}

// TestHysteresisNoChatter drives a core's temperature on a dithering path
// that stays strictly inside the (ClearC, SetC) band and asserts the cap
// decision never changes — from either latched side of the band.
func TestHysteresisNoChatter(t *testing.T) {
	for _, hot := range []bool{false, true} {
		p := &Hysteresis{SetC: 80, ClearC: 75}
		if err := p.Reset(1, DefaultLadder); err != nil {
			t.Fatal(err)
		}
		levels := []int{3}
		if hot {
			p.Act([]float64{81}, levels) // latch throttled
			if levels[0] != 0 {
				t.Fatalf("hot latch: level = %d, want 0", levels[0])
			}
		}
		want := levels[0]
		// Dither across the interior of the band for many steps.
		for i := 0; i < 100; i++ {
			tc := 75.1 + 4.8*math.Abs(math.Sin(float64(i)))
			p.Act([]float64{tc}, levels)
			if levels[0] != want {
				t.Fatalf("hot=%v step %d (%.2f °C): level changed %d -> %d inside the band",
					hot, i, tc, want, levels[0])
			}
		}
	}
}

func TestHysteresisLatches(t *testing.T) {
	p := &Hysteresis{SetC: 80, ClearC: 75}
	if err := p.Reset(1, DefaultLadder); err != nil {
		t.Fatal(err)
	}
	levels := []int{3}
	p.Act([]float64{80}, levels) // set edge throttles
	if levels[0] != 0 {
		t.Fatalf("at SetC: level = %d, want 0", levels[0])
	}
	p.Act([]float64{76}, levels) // inside band: still throttled
	if levels[0] != 0 {
		t.Fatalf("inside band: level = %d, want 0", levels[0])
	}
	p.Act([]float64{75}, levels) // clear edge releases
	if levels[0] != 3 {
		t.Fatalf("at ClearC: level = %d, want 3", levels[0])
	}
	if err := (&Hysteresis{SetC: 70, ClearC: 75}).Reset(1, DefaultLadder); err == nil {
		t.Error("inverted band accepted")
	}
}

// TestPIAntiWindup holds a core far above target long enough to saturate the
// actuator, then cools it, and asserts (a) the stored integral is clamped to
// the actuator's authority rather than growing with excursion length, and
// (b) the cap returns to nominal within a bounded number of cool steps.
func TestPIAntiWindup(t *testing.T) {
	p := &PICap{TargetC: 78, Kp: 0.10, Ki: 0.02}
	if err := p.Reset(1, DefaultLadder); err != nil {
		t.Fatal(err)
	}
	levels := []int{3}
	for i := 0; i < 500; i++ {
		p.Act([]float64{95}, levels) // 17 °C over target: hard saturation
	}
	if levels[0] != 0 {
		t.Fatalf("saturated level = %d, want floor 0", levels[0])
	}
	lim := (1 - DefaultLadder[0]) / p.Ki
	if got := p.integ[0]; got > lim+1e-9 {
		t.Fatalf("integral wound up to %v, clamp is %v", got, lim)
	}
	// Cool to 10 °C under target: each step discharges Ki·|e| = 0.2 of
	// integral authority, so recovery must complete within a handful of
	// steps — not the 500 the excursion lasted.
	recovered := -1
	for i := 0; i < 20; i++ {
		p.Act([]float64{68}, levels)
		if levels[0] == 3 {
			recovered = i
			break
		}
	}
	if recovered < 0 {
		t.Fatalf("cap never recovered to nominal within 20 cool steps (level %d)", levels[0])
	}
}

func TestPIQuantizesDown(t *testing.T) {
	p := &PICap{TargetC: 78, Kp: 0.10, Ki: 0} // pure P for a closed form
	if err := p.Reset(1, DefaultLadder); err != nil {
		t.Fatal(err)
	}
	levels := []int{3}
	// e = 2 ⇒ u = 0.8: the cap must quantize DOWN to 0.7, never up to 0.85.
	p.Act([]float64{80}, levels)
	if DefaultLadder[levels[0]] != 0.7 {
		t.Errorf("u=0.8 quantized to %v, want 0.7", DefaultLadder[levels[0]])
	}
	// e = 0 ⇒ u = 1: exactly nominal.
	p.Act([]float64{78}, levels)
	if levels[0] != 3 {
		t.Errorf("u=1 level = %d, want 3", levels[0])
	}
	// e = 15 ⇒ u clamps to floor.
	p.Act([]float64{93}, levels)
	if levels[0] != 0 {
		t.Errorf("saturated level = %d, want 0", levels[0])
	}
}

func TestControllerReadsHottestCoreCell(t *testing.T) {
	// Two "cores" of two cells each on a 4-cell map.
	cells := [][]int{{0, 1}, {2, 3}}
	p := &Threshold{TripC: 80}
	ctrl, err := NewController(p, nil, cells)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Cores() != 2 || ctrl.Policy() != "threshold" {
		t.Fatalf("controller identity: cores=%d policy=%q", ctrl.Cores(), ctrl.Policy())
	}
	levels := ctrl.Step([]float64{70, 81, 70, 70}) // core 0's second cell trips
	if levels[0] != 0 || levels[1] != len(DefaultLadder)-1 {
		t.Errorf("levels = %v, want [0 %d]", levels, len(DefaultLadder)-1)
	}
	if ctrl.Throttled() != 1 {
		t.Errorf("Throttled = %d, want 1", ctrl.Throttled())
	}
}

func TestControllerRejectsDegenerates(t *testing.T) {
	cells := [][]int{{0}}
	if _, err := NewController(nil, nil, cells); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewController(&Threshold{TripC: 80}, []float64{1, 0.5}, cells); err == nil {
		t.Error("descending ladder accepted")
	}
	if _, err := NewController(&Threshold{TripC: 80}, nil, nil); err == nil {
		t.Error("coreless floorplan accepted")
	}
	if _, err := NewController(&Hysteresis{SetC: 1, ClearC: 2}, nil, cells); err == nil {
		t.Error("inverted hysteresis band accepted")
	}
}
