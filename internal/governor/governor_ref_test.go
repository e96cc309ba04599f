package governor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
)

// refController is the control step as it stood before Step read per-core
// cell slices and counted throttled cores itself: flat int32 cell spans,
// and a Throttled that re-scans the levels. It is kept verbatim, with
// refHysteresis (the branching latch), as the reference the shipped step is
// pinned to.
type refController struct {
	policy  Policy
	ladder  []float64
	cellIdx []int32
	cellOff []int32
	levels  []int
	temps   []float64
}

func newRefController(policy Policy, ladder []float64, coreCells [][]int) (*refController, error) {
	ladder = append([]float64(nil), ladder...)
	if err := policy.Reset(len(coreCells), ladder); err != nil {
		return nil, err
	}
	c := &refController{
		policy: policy,
		ladder: ladder,
		levels: make([]int, len(coreCells)),
		temps:  make([]float64, len(coreCells)),
	}
	c.cellOff = make([]int32, len(coreCells)+1)
	for ci, cc := range coreCells {
		for _, i := range cc {
			c.cellIdx = append(c.cellIdx, int32(i))
		}
		c.cellOff[ci+1] = int32(len(c.cellIdx))
	}
	for i := range c.levels {
		c.levels[i] = len(ladder) - 1
	}
	return c, nil
}

func (c *refController) Step(mapC []float64) []int {
	for ci := range c.temps {
		lo, hi := c.cellOff[ci], c.cellOff[ci+1]
		if lo == hi {
			c.temps[ci] = 0
			continue
		}
		t := mapC[c.cellIdx[lo]]
		for _, i := range c.cellIdx[lo+1 : hi] {
			if v := mapC[i]; v > t {
				t = v
			}
		}
		c.temps[ci] = t
	}
	c.policy.Act(c.temps, c.levels)
	return c.levels
}

func (c *refController) Throttled() int {
	n := 0
	top := len(c.ladder) - 1
	for _, l := range c.levels {
		if l < top {
			n++
		}
	}
	return n
}

type refHysteresis struct {
	SetC   float64
	ClearC float64

	top int
	hot []bool
}

func (h *refHysteresis) Name() string { return "hysteresis" }

func (h *refHysteresis) Reset(cores int, ladder []float64) error {
	h.top = len(ladder) - 1
	h.hot = make([]bool, cores)
	return nil
}

func (h *refHysteresis) Act(coreTempC []float64, levels []int) {
	for c, tc := range coreTempC {
		switch {
		case tc >= h.SetC:
			h.hot[c] = true
		case tc <= h.ClearC:
			h.hot[c] = false
		}
		if h.hot[c] {
			levels[c] = 0
		} else {
			levels[c] = h.top
		}
	}
}

// The shipped control step (Step and StepInto, alternately) equals the
// reference bit for bit over long randomized streams, for every policy: the
// same per-core temperatures (by float64 bits), levels and throttled counts
// at every step. The streams
// sit on the policies' setpoints (ties), mix +0 and −0, and carry NaN
// cells. The core map is t1's at
// fleet scale plus one core with no cells.
func TestControllerMatchesReference(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	grid := floorplan.Grid{W: 16, H: 14}
	cells := append(CoreCells(fp, fp.Rasterize(grid)), []int{})
	const ceiling = 80.0
	steps := 20000
	if testing.Short() {
		steps = 2000
	}
	for _, name := range policyNames {
		t.Run(name, func(t *testing.T) {
			pol, err := NewPolicy(name, Params{CeilingC: ceiling})
			if err != nil {
				t.Fatal(err)
			}
			ctrl, err := NewController(pol, []float64{0.4, 0.6, 0.8, 0.9, 1}, cells)
			if err != nil {
				t.Fatal(err)
			}
			var refPol Policy
			switch p := pol.(type) {
			case *Hysteresis:
				refPol = &refHysteresis{SetC: p.SetC, ClearC: p.ClearC}
			default:
				refPol, _ = NewPolicy(name, Params{CeilingC: ceiling})
			}
			ref, err := newRefController(refPol, []float64{0.4, 0.6, 0.8, 0.9, 1}, cells)
			if err != nil {
				t.Fatal(err)
			}
			if ctrl.Throttled() != ref.Throttled() {
				t.Fatalf("before the first step: throttled %d, reference %d", ctrl.Throttled(), ref.Throttled())
			}
			// Values on and around every policy's setpoints.
			ties := []float64{ceiling - 1, ceiling - 2, ceiling - 4, ceiling, 0, math.Copysign(0, -1)}
			rng := rand.New(rand.NewSource(int64(len(name))))
			mapC := make([]float64, grid.W*grid.H)
			changes := 0
			for s := 0; s < steps; s++ {
				before := ref.Throttled()
				level := ceiling - 20 + 28*rng.Float64()
				for i := range mapC {
					switch r := rng.Intn(10); {
					case s%97 == 0: // an all-zero map of mixed signs
						mapC[i] = ties[4+rng.Intn(2)]
					case r < 3:
						mapC[i] = ties[rng.Intn(len(ties))]
					default:
						mapC[i] = level + 2*rng.NormFloat64()
					}
				}
				if s%50 == 7 {
					// Mostly a cell the hottest-cell scan skips; three times a
					// core's first cell, which makes its temperature NaN (a
					// NaN also freezes a PI core's integral for good).
					core := cells[rng.Intn(len(cells)-1)]
					if s%(steps/4) == 7 {
						mapC[core[0]] = math.NaN()
					} else {
						mapC[core[1+rng.Intn(len(core)-1)]] = math.NaN()
					}
				}
				// Odd steps go through StepInto, whose count must be the
				// reference's Throttled.
				var got []int
				want := ref.Step(mapC)
				if s%2 == 0 {
					got = ctrl.Step(mapC)
				} else {
					got = make([]int, len(want))
					if n := ctrl.StepInto(got, mapC); n != ref.Throttled() {
						t.Fatalf("step %d: StepInto counted %d throttled, reference %d", s, n, ref.Throttled())
					}
				}
				for c := range want {
					if math.Float64bits(ctrl.temps[c]) != math.Float64bits(ref.temps[c]) {
						t.Fatalf("step %d core %d: temperature %v, reference %v", s, c, ctrl.temps[c], ref.temps[c])
					}
					if got[c] != want[c] {
						t.Fatalf("step %d core %d: level %d, reference %d", s, c, got[c], want[c])
					}
				}
				if ctrl.Throttled() != ref.Throttled() {
					t.Fatalf("step %d: throttled %d, reference %d", s, ctrl.Throttled(), ref.Throttled())
				}
				if ref.Throttled() != before {
					changes++
				}
			}
			if changes < steps/20 {
				t.Fatalf("the throttled count changed in only %d of %d steps: the stream does not exercise the policy", changes, steps)
			}
		})
	}
}
