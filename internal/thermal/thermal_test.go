package thermal

import (
	"math"
	"testing"

	"repro/internal/floorplan"
)

func smallModel() *Model {
	return NewModel(floorplan.Grid{W: 12, H: 10}, Config{})
}

func TestDefaultsApplied(t *testing.T) {
	m := smallModel()
	if m.Cfg.AmbientC != 45 || m.Cfg.DtSeconds != 10e-3 {
		t.Fatalf("defaults not applied: %+v", m.Cfg)
	}
	if m.gTIM <= 0 || m.gSink <= 0 || m.gxDie <= 0 {
		t.Fatal("non-positive conductances")
	}
}

func TestSteadyStateZeroPowerIsAmbient(t *testing.T) {
	m := smallModel()
	temps, err := m.SteadyState(make([]float64, m.Grid.N()))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range temps {
		if math.Abs(v-m.Cfg.AmbientC) > 1e-9 {
			t.Fatalf("zero-power steady state %v, want ambient %v", v, m.Cfg.AmbientC)
		}
	}
}

// TestSteadyStateEnergyBalance checks the production steady state against
// conservation of energy: in equilibrium all injected power leaves through
// the sink, Σ gSink·(T_spreader − T_amb) == Σ P. It runs on the e2ebench
// grids (60×56, 16×14, 32×32) and a tall 7×19 grid, under a non-uniform
// power map.
func TestSteadyStateEnergyBalance(t *testing.T) {
	for _, g := range []floorplan.Grid{{W: 60, H: 56}, {W: 16, H: 14}, {W: 32, H: 32}, {W: 7, H: 19}} {
		m := NewModel(g, Config{})
		p := make([]float64, g.N())
		var in float64
		for i := range p {
			p[i] = 0.005 + 0.03*math.Abs(math.Sin(0.37*float64(i)+1))
			in += p[i]
		}
		tr := m.NewTransient()
		if err := tr.SetSteadyState(p); err != nil {
			t.Fatal(err)
		}
		var out float64
		for _, v := range tr.SpreaderTemperatures() {
			out += m.gSink * (v - m.Cfg.AmbientC)
		}
		if rel := math.Abs(out-in) / in; rel > 1e-10 {
			t.Fatalf("%dx%d: sink heat %v W vs injected %v W (relative gap %g)", g.W, g.H, out, in, rel)
		}
	}
}

func TestSteadyStateAboveAmbientAndHotterAtSource(t *testing.T) {
	m := smallModel()
	p := make([]float64, m.Grid.N())
	hot := m.Grid.Index(5, 6)
	p[hot] = 2.0
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	maxI := 0
	for i, v := range temps {
		if v < m.Cfg.AmbientC-1e-9 {
			t.Fatalf("cell %d below ambient: %v", i, v)
		}
		if v > temps[maxI] {
			maxI = i
		}
	}
	if maxI != hot {
		t.Fatalf("hottest cell %d, want source %d", maxI, hot)
	}
}

func TestSteadyStateMonotoneInPower(t *testing.T) {
	// Doubling power doubles the rise (model is linear).
	m := smallModel()
	p := make([]float64, m.Grid.N())
	for i := range p {
		p[i] = 0.01 * float64(i%7)
	}
	t1, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		p[i] *= 2
	}
	t2, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	amb := m.Cfg.AmbientC
	for i := range t1 {
		r1, r2 := t1[i]-amb, t2[i]-amb
		if math.Abs(r2-2*r1) > 1e-6*(r1+1) {
			t.Fatalf("linearity violated at %d: %v vs 2·%v", i, r2, r1)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	m := NewModel(floorplan.Grid{W: 8, H: 8}, Config{DtSeconds: 50e-3})
	p := make([]float64, m.Grid.N())
	for i := range p {
		p[i] = 0.03
	}
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.NewTransient()
	var got []float64
	for step := 0; step < 400; step++ {
		got, err = tr.Step(p)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Fatalf("transient cell %d = %v, steady %v", i, got[i], want[i])
		}
	}
}

// TestTransientContractsToSteadyState checks that transient runs converge
// to the steady state on every production grid, and the 3×2 grid of the
// solver's narrow fallback. Backward Euler on the M-matrix A = C/dt + G is
// a max-norm contraction: A⁻¹·(C/dt) is non-negative, and its row sums are
// at most 1 because G·1 ≥ 0. So under a constant power map, with no
// leakage, a run started at ambient must never move away from the steady
// state in any unknown, die or spreader, beyond 1e-12 °C of rounding, and
// must come within 1e-9 °C of it. The property holds at any step length;
// 50 ms steps (the default is 10 ms) reach 1e-9 °C in under 200 steps,
// which keeps CI's repeated -race run of this test short.
func TestTransientContractsToSteadyState(t *testing.T) {
	for _, g := range []floorplan.Grid{{W: 60, H: 56}, {W: 16, H: 14}, {W: 32, H: 32}, {W: 7, H: 19}, {W: 3, H: 2}} {
		m := NewModel(g, Config{DtSeconds: 50e-3})
		p := make([]float64, g.N())
		for i := range p {
			p[i] = 0.005 + 0.03*math.Abs(math.Sin(0.37*float64(i)+1))
		}
		steady := m.NewTransient()
		if err := steady.SetSteadyState(p); err != nil {
			t.Fatal(err)
		}
		dist := func(tr *Transient) float64 {
			var d float64
			for i, v := range tr.t {
				d = math.Max(d, math.Abs(v-steady.t[i]))
			}
			return d
		}
		tr := m.NewTransient()
		dst := make([]float64, g.N())
		prev := dist(tr)
		const maxSteps = 2000
		step := 0
		for ; prev >= 1e-9 && step < maxSteps; step++ {
			if err := tr.StepInto(dst, p); err != nil {
				t.Fatal(err)
			}
			d := dist(tr)
			if d > prev+1e-12 {
				t.Fatalf("%dx%d step %d: distance to the steady state grew from %g to %g °C", g.W, g.H, step, prev, d)
			}
			prev = d
		}
		if prev >= 1e-9 {
			t.Fatalf("%dx%d: %g °C from the steady state after %d steps, want < 1e-9", g.W, g.H, prev, step)
		}
		t.Logf("%dx%d: within 1e-9 °C of the steady state after %d steps", g.W, g.H, step)
	}
}

func TestTransientMonotoneHeatUp(t *testing.T) {
	m := NewModel(floorplan.Grid{W: 6, H: 6}, Config{})
	p := make([]float64, m.Grid.N())
	p[m.Grid.Index(3, 3)] = 1
	tr := m.NewTransient()
	prev := -math.MaxFloat64
	for step := 0; step < 50; step++ {
		temps, err := tr.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		cur := temps[m.Grid.Index(3, 3)]
		if cur < prev-1e-9 {
			t.Fatalf("step %d: source cooled from %v to %v under constant power", step, prev, cur)
		}
		prev = cur
	}
}

func TestTransientCoolsAfterPowerOff(t *testing.T) {
	m := NewModel(floorplan.Grid{W: 6, H: 6}, Config{})
	p := make([]float64, m.Grid.N())
	for i := range p {
		p[i] = 0.05
	}
	tr := m.NewTransient()
	if err := tr.SetSteadyState(p); err != nil {
		t.Fatal(err)
	}
	hot := tr.DieTemperatures()
	zero := make([]float64, m.Grid.N())
	var cooled []float64
	var err error
	for step := 0; step < 200; step++ {
		cooled, err = tr.Step(zero)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range hot {
		if cooled[i] > hot[i]+1e-9 {
			t.Fatalf("cell %d heated after power-off", i)
		}
		if cooled[i] > m.Cfg.AmbientC+1 {
			t.Fatalf("cell %d did not cool toward ambient: %v", i, cooled[i])
		}
	}
}

func TestSetSteadyStateMatchesSteadyState(t *testing.T) {
	m := smallModel()
	p := make([]float64, m.Grid.N())
	for i := range p {
		p[i] = 0.01 + 0.001*float64(i%13)
	}
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.NewTransient()
	if err := tr.SetSteadyState(p); err != nil {
		t.Fatal(err)
	}
	got := tr.DieTemperatures()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("cell %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestMaximumPrinciple(t *testing.T) {
	// With a single heat source, temperature decreases with graph distance
	// from the source along a straight line.
	m := NewModel(floorplan.Grid{W: 16, H: 4}, Config{})
	p := make([]float64, m.Grid.N())
	src := m.Grid.Index(2, 0)
	p[src] = 1.5
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col < 16; col++ {
		a := temps[m.Grid.Index(2, col-1)]
		b := temps[m.Grid.Index(2, col)]
		if b > a+1e-9 {
			t.Fatalf("temperature rose away from source at col %d: %v > %v", col, b, a)
		}
	}
}

func TestSpreaderCoolerThanDie(t *testing.T) {
	m := smallModel()
	p := make([]float64, m.Grid.N())
	for i := range p {
		p[i] = 0.03
	}
	tr := m.NewTransient()
	if err := tr.SetSteadyState(p); err != nil {
		t.Fatal(err)
	}
	die := tr.DieTemperatures()
	spr := tr.SpreaderTemperatures()
	var dieMean, sprMean float64
	for i := range die {
		dieMean += die[i]
		sprMean += spr[i]
	}
	if sprMean >= dieMean {
		t.Fatalf("spreader (%v) not cooler than die (%v)", sprMean, dieMean)
	}
}

func TestLeakageIncreasesTemperature(t *testing.T) {
	g := floorplan.Grid{W: 8, H: 8}
	p := make([]float64, g.N())
	for i := range p {
		p[i] = 0.02
	}
	run := func(lk *LeakageModel) float64 {
		m := NewModel(g, Config{Leakage: lk})
		tr := m.NewTransient()
		var temps []float64
		var err error
		for step := 0; step < 100; step++ {
			temps, err = tr.Step(p)
			if err != nil {
				t.Fatal(err)
			}
		}
		var mean float64
		for _, v := range temps {
			mean += v
		}
		return mean / float64(len(temps))
	}
	base := run(nil)
	leaky := run(&LeakageModel{BaseWPerCell: 0.005, TRefC: 45, TSlopeC: 30})
	if leaky <= base {
		t.Fatalf("leakage run (%v) not hotter than baseline (%v)", leaky, base)
	}
}

func TestApplyGSymmetric(t *testing.T) {
	// ⟨Gx, y⟩ == ⟨x, Gy⟩ for random-ish vectors: G must be symmetric.
	m := NewModel(floorplan.Grid{W: 5, H: 7}, Config{})
	n := 2 * m.Grid.N()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
		y[i] = math.Cos(float64(7*i + 2))
	}
	gx := make([]float64, n)
	gy := make([]float64, n)
	m.ApplyG(x, gx)
	m.ApplyG(y, gy)
	var a, b float64
	for i := range x {
		a += gx[i] * y[i]
		b += x[i] * gy[i]
	}
	if math.Abs(a-b) > 1e-9*(math.Abs(a)+1) {
		t.Fatalf("G not symmetric: %v vs %v", a, b)
	}
}

func TestApplyGPositiveDefinite(t *testing.T) {
	// xᵀGx > 0 for non-zero x (grounded Laplacian).
	m := NewModel(floorplan.Grid{W: 4, H: 4}, Config{})
	n := 2 * m.Grid.N()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 // worst case for a pure Laplacian: constant vector
	}
	gx := make([]float64, n)
	m.ApplyG(x, gx)
	var q float64
	for i := range x {
		q += x[i] * gx[i]
	}
	if q <= 0 {
		t.Fatalf("xᵀGx = %v for constant x; grounding terms missing", q)
	}
}

func TestLeakageModelMonotone(t *testing.T) {
	lk := &LeakageModel{BaseWPerCell: 0.01, TRefC: 45, TSlopeC: 30}
	if !(lk.Power(55) > lk.Power(45) && lk.Power(45) > lk.Power(35)) {
		t.Fatal("leakage not monotone in temperature")
	}
	if math.Abs(lk.Power(45)-0.01) > 1e-12 {
		t.Fatalf("leakage at TRef = %v, want base", lk.Power(45))
	}
}

// TestTransientStepBatchBitIdentical pins Model.StepBatchInto to
// Transient.StepInto: runs stepped together, one to five at a time (five
// takes two sweeps), must leave the same die temperatures and state, bit
// for bit, as twins of them stepped alone, with and without leakage (whose
// power reads each run's own pre-step temperatures), and allocate nothing.
func TestTransientStepBatchBitIdentical(t *testing.T) {
	lk := &LeakageModel{BaseWPerCell: 0.004, TRefC: 45, TSlopeC: 30}
	for _, g := range []floorplan.Grid{{W: 12, H: 10}, {W: 7, H: 19}} {
		for _, leak := range []*LeakageModel{nil, lk} {
			m := NewModel(g, Config{Leakage: leak})
			n := m.Grid.N()
			for runs := 1; runs <= 5; runs++ {
				batch := make([]*Transient, runs)
				alone := make([]*Transient, runs)
				power := make([][]float64, runs)
				got := make([][]float64, runs)
				want := make([]float64, n)
				for v := range batch {
					batch[v], alone[v] = m.NewTransient(), m.NewTransient()
					power[v] = make([]float64, n)
					for i := range power[v] {
						power[v][i] = 0.01 * float64((i*(v+3))%17)
					}
					if err := batch[v].SetSteadyState(power[v]); err != nil {
						t.Fatal(err)
					}
					if err := alone[v].SetSteadyState(power[v]); err != nil {
						t.Fatal(err)
					}
					got[v] = make([]float64, n)
				}
				for step := 0; step < 4; step++ {
					for v := range power {
						power[v][(step*7+v)%n] += 0.5
					}
					if err := m.StepBatchInto(batch, got, power); err != nil {
						t.Fatal(err)
					}
					for v := range alone {
						if err := alone[v].StepInto(want, power[v]); err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if math.Float64bits(got[v][i]) != math.Float64bits(want[i]) {
								t.Fatalf("%dx%d leak=%v runs=%d step %d: run %d cell %d = %v, alone %v",
									g.W, g.H, leak != nil, runs, step, v, i, got[v][i], want[i])
							}
						}
						for i := range alone[v].t {
							if math.Float64bits(batch[v].t[i]) != math.Float64bits(alone[v].t[i]) {
								t.Fatalf("%dx%d leak=%v runs=%d step %d: run %d state %d differs",
									g.W, g.H, leak != nil, runs, step, v, i)
							}
						}
					}
				}
				allocs := testing.AllocsPerRun(3, func() {
					if err := m.StepBatchInto(batch, got, power); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("%dx%d runs=%d: %v allocs per step, want 0", g.W, g.H, runs, allocs)
				}
			}
		}
	}
}
