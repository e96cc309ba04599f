package thermal

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/mat"
)

// stepPowers builds a deterministic sequence of spatially-structured power
// maps that moves enough between steps to exercise the transient solver.
func stepPowers(n, steps int) [][]float64 {
	out := make([][]float64, steps)
	for s := range out {
		p := make([]float64, n)
		for i := range p {
			p[i] = 0.01 + 0.02*math.Abs(math.Sin(float64(i*(s+3)+7)))
		}
		out[s] = p
	}
	return out
}

// oracle is an independent solve of the model's equations, stepped in
// lockstep with a Transient: solveG solves G·x = b (the steady state) and
// solveA solves A·x = b with A = C/dt + G (one backward-Euler step).
type oracle struct {
	m              *Model
	solveG, solveA func(b []float64) []float64
	cd, cs         float64
	t              []float64 // temperature rise, layer-major, like Transient.t
}

func newOracle(m *Model) *oracle {
	return &oracle{m: m, cd: m.cDie / m.Cfg.DtSeconds, cs: m.cSpr / m.Cfg.DtSeconds, t: make([]float64, m.NumUnknowns())}
}

// newDenseOracle assembles G densely by applying ApplyG to unit vectors (so
// it never sees the banded assembly or the interleaved ordering), adds the
// mass diagonal for A, and factors both with the dense Cholesky.
func newDenseOracle(t *testing.T, m *Model) *oracle {
	t.Helper()
	o := newOracle(m)
	nu := m.NumUnknowns()
	gm := mat.New(nu, nu)
	e := make([]float64, nu)
	col := make([]float64, nu)
	for j := 0; j < nu; j++ {
		e[j] = 1
		m.ApplyG(e, col)
		e[j] = 0
		for i, v := range col {
			gm.Set(i, j, v)
		}
	}
	g, err := mat.NewCholesky(gm)
	if err != nil {
		t.Fatal(err)
	}
	am := gm.Clone()
	for i := 0; i < m.n; i++ {
		am.Set(i, i, am.At(i, i)+o.cd)
		am.Set(m.n+i, m.n+i, am.At(m.n+i, m.n+i)+o.cs)
	}
	a, err := mat.NewCholesky(am)
	if err != nil {
		t.Fatal(err)
	}
	o.solveG, o.solveA = g.Solve, a.Solve
	return o
}

// newCGOracle solves with matrix-free Jacobi-preconditioned conjugate
// gradients on ApplyG, so it shares neither an assembled matrix nor a
// factorisation with the banded solver.
func newCGOracle(t *testing.T, m *Model) *oracle {
	o := newOracle(m)
	applyA := func(x, y []float64) {
		m.ApplyG(x, y)
		for i := 0; i < m.n; i++ {
			y[i] += o.cd * x[i]
			y[m.n+i] += o.cs * x[m.n+i]
		}
	}
	diagA := append([]float64(nil), m.diag...)
	for i := 0; i < m.n; i++ {
		diagA[i] += o.cd
		diagA[m.n+i] += o.cs
	}
	o.solveG = func(b []float64) []float64 { return cgSolve(t, m.ApplyG, m.diag, b) }
	o.solveA = func(b []float64) []float64 { return cgSolve(t, applyA, diagA, b) }
	return o
}

// cgSolve runs Jacobi-preconditioned conjugate gradients on the SPD operator
// apply (with diagonal diag) from x = 0 until ‖r‖ ≤ 1e-13·‖b‖.
func cgSolve(t *testing.T, apply func(x, y []float64), diag, b []float64) []float64 {
	t.Helper()
	n := len(b)
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z := make([]float64, n)
	for i := range z {
		z[i] = r[i] / diag[i]
	}
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := mat.Dot(r, z)
	tol := 1e-13 * math.Sqrt(mat.Dot(b, b))
	for it := 0; it < 10*n; it++ {
		if math.Sqrt(mat.Dot(r, r)) <= tol {
			return x
		}
		apply(p, ap)
		alpha := rz / mat.Dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			z[i] = r[i] / diag[i]
		}
		rzNext := mat.Dot(r, z)
		beta := rzNext / rz
		rz = rzNext
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	t.Fatalf("cg: residual above 1e-13·‖b‖ after %d iterations", 10*n)
	return nil
}

func (o *oracle) setSteadyState(p []float64) {
	b := make([]float64, len(o.t))
	copy(b, p)
	o.t = o.solveG(b)
}

func (o *oracle) step(p []float64) {
	m := o.m
	b := make([]float64, len(o.t))
	for i := 0; i < m.n; i++ {
		pi := p[i]
		if lk := m.Cfg.Leakage; lk != nil {
			pi += lk.Power(o.t[i] + m.Cfg.AmbientC)
		}
		b[i] = o.cd*o.t[i] + pi
		b[m.n+i] = o.cs * o.t[m.n+i]
	}
	o.t = o.solveA(b)
}

// checkAgainstOracle starts the banded solver and the oracle built by
// newO at the same steady state, steps both through the same trace, and
// bounds the gap on every die and spreader cell after every step by tol °C.
func checkAgainstOracle(t *testing.T, g floorplan.Grid, lk *LeakageModel, steps int,
	newO func(*testing.T, *Model) *oracle, tol float64) {
	t.Helper()
	m := NewModel(g, Config{Leakage: lk})
	powers := stepPowers(g.N(), steps)
	tr := m.NewTransient()
	o := newO(t, m)
	compare := func(when string) {
		t.Helper()
		die, spr := tr.DieTemperatures(), tr.SpreaderTemperatures()
		for i := 0; i < m.n; i++ {
			for _, c := range []struct {
				layer string
				got   float64
				want  float64
			}{
				{"die", die[i], o.t[i] + m.Cfg.AmbientC},
				{"spreader", spr[i], o.t[m.n+i] + m.Cfg.AmbientC},
			} {
				if d := math.Abs(c.got - c.want); d > tol {
					t.Fatalf("%dx%d leakage=%v %s, %s cell %d: |banded−oracle| = %g °C",
						g.W, g.H, lk != nil, when, c.layer, i, d)
				}
			}
		}
	}
	if err := tr.SetSteadyState(powers[0]); err != nil {
		t.Fatal(err)
	}
	o.setSteadyState(powers[0])
	compare("steady state")
	for s, p := range powers {
		if _, err := tr.Step(p); err != nil {
			t.Fatal(err)
		}
		o.step(p)
		compare(fmt.Sprintf("step %d", s))
	}
}

// TestDirectMatchesDenseOracle pins the banded factor-once solver against
// the dense oracle on a wide and a tall grid, with and without leakage: the
// steady state and 60 backward-Euler steps agree to 1e-9 °C.
func TestDirectMatchesDenseOracle(t *testing.T) {
	for _, g := range []floorplan.Grid{{W: 14, H: 11}, {W: 5, H: 9}} {
		for _, lk := range []*LeakageModel{nil, {BaseWPerCell: 0.004, TRefC: 45, TSlopeC: 30}} {
			checkAgainstOracle(t, g, lk, 60, newDenseOracle, 1e-9)
		}
	}
}

// TestDirectMatchesCGTransient steps the same trace through the banded
// solver and the matrix-free CG oracle, with and without leakage: die and
// spreader temperatures stay within 1e-6 °C at every step.
func TestDirectMatchesCGTransient(t *testing.T) {
	for _, lk := range []*LeakageModel{nil, {BaseWPerCell: 0.004, TRefC: 45, TSlopeC: 30}} {
		checkAgainstOracle(t, floorplan.Grid{W: 14, H: 11}, lk, 60, newCGOracle, 1e-6)
	}
}

// TestDirectMatchesCGSteadyState compares Model.SteadyState with the CG
// oracle's solve of G·T = P on every die cell.
func TestDirectMatchesCGSteadyState(t *testing.T) {
	g := floorplan.Grid{W: 12, H: 10}
	p := stepPowers(g.N(), 1)[0]
	m := NewModel(g, Config{})
	direct, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	o := newCGOracle(t, m)
	o.setSteadyState(p)
	for i := range direct {
		if d := math.Abs(direct[i] - (o.t[i] + m.Cfg.AmbientC)); d > 1e-6 {
			t.Fatalf("cell %d: |direct−cg| = %g °C", i, d)
		}
	}
}

func TestStepIntoMatchesStep(t *testing.T) {
	g := floorplan.Grid{W: 9, H: 7}
	powers := stepPowers(g.N(), 10)
	m := NewModel(g, Config{})
	trA, trB := m.NewTransient(), m.NewTransient()
	dst := make([]float64, g.N())
	for _, p := range powers {
		want, err := trA.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := trB.StepInto(dst, p); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("StepInto diverged from Step at cell %d", i)
			}
		}
	}
}

// TestStepIntoZeroAlloc pins the hot path of dataset generation at zero
// allocations per step: the step solves in place against the shared factor.
func TestStepIntoZeroAlloc(t *testing.T) {
	g := floorplan.Grid{W: 12, H: 10}
	p := stepPowers(g.N(), 1)[0]
	m := NewModel(g, Config{})
	tr := m.NewTransient()
	if err := tr.SetSteadyState(p); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, g.N())
	allocs := testing.AllocsPerRun(20, func() {
		if err := tr.StepInto(dst, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("StepInto allocated %v times per step", allocs)
	}
}

func TestSetSteadyStateZeroAllocAfterFirst(t *testing.T) {
	g := floorplan.Grid{W: 10, H: 8}
	p := stepPowers(g.N(), 1)[0]
	m := NewModel(g, Config{})
	tr := m.NewTransient()
	if err := tr.SetSteadyState(p); err != nil { // first call factors G
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := tr.SetSteadyState(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SetSteadyState allocated %v times per call", allocs)
	}
}

// TestSharedFactorConcurrentTransients runs several Transients over one
// Model from separate goroutines (the parallel dataset-generation shape);
// under -race this pins that the factors NewModel builds on two goroutines
// are safely shared.
func TestSharedFactorConcurrentTransients(t *testing.T) {
	g := floorplan.Grid{W: 10, H: 9}
	m := NewModel(g, Config{})
	powers := stepPowers(g.N(), 8)
	want := func() []float64 {
		tr := m.NewTransient()
		var last []float64
		for _, p := range powers {
			var err error
			if last, err = tr.Step(p); err != nil {
				t.Fatal(err)
			}
		}
		return last
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := m.NewTransient()
			var last []float64
			for _, p := range powers {
				var err error
				if last, err = tr.Step(p); err != nil {
					t.Error(err)
					return
				}
			}
			for i := range want {
				if last[i] != want[i] {
					t.Errorf("concurrent transient diverged at cell %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFactorErrorsStayPerMatrix pins that A and G, though factored
// together, each report their own factorization's error. A negative sink
// resistance makes G indefinite (1ᵀ·G·1 = Σ gSink < 0), while the mass
// terms keep A diagonally dominant: the steady start fails and the steps
// still run.
func TestFactorErrorsStayPerMatrix(t *testing.T) {
	g := floorplan.Grid{W: 6, H: 5}
	tr := NewModel(g, Config{SinkResistanceKPerW: -0.35}).NewTransient()
	if err := tr.SetSteadyState(make([]float64, g.N())); !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("SetSteadyState error %v, want %v", err, mat.ErrSingular)
	}
	if err := tr.StepInto(make([]float64, g.N()), make([]float64, g.N())); err != nil {
		t.Fatalf("StepInto: %v", err)
	}
}

// TestTallGridAgreement pins the minor-dimension ordering: a grid with
// H > W keeps the band 2·min(W,H) wide rather than 2·H, and still agrees
// with the dense oracle.
func TestTallGridAgreement(t *testing.T) {
	g := floorplan.Grid{W: 6, H: 20}
	if bw := NewModel(g, Config{}).bandwidth(); bw != 12 {
		t.Fatalf("bandwidth %d for 6×20 grid, want 2·min(W,H) = 12", bw)
	}
	checkAgainstOracle(t, g, nil, 30, newDenseOracle, 1e-9)
}
