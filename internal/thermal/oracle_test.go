package thermal

// Test-only entry points over the model and the transient state. The
// create path steps with StepInto and reads the spreader only through the
// solver; these allocating forms and the matrix-free G apply are what the
// physics tests and the dense and CG oracles are written against.

// NumUnknowns returns the total unknown count (2 layers × N cells).
func (m *Model) NumUnknowns() int { return 2 * m.n }

// ApplyG computes y = G·x for the conductance matrix (the negated graph
// Laplacian plus grounding terms); x and y have length 2n.
func (m *Model) ApplyG(x, y []float64) {
	if len(x) != 2*m.n || len(y) != 2*m.n {
		panic("thermal: ApplyG length mismatch")
	}
	g := m.Grid
	n := m.n
	for i := range y {
		y[i] = m.diag[i] * x[i]
	}
	for row := 0; row < g.H; row++ {
		for col := 0; col < g.W; col++ {
			i := g.Index(row, col)
			xd := x[i]
			xs := x[n+i]
			// Lateral couplings: accumulate -g·x_neighbor.
			if col > 0 {
				j := i - g.H // column stacking: left neighbor is H back
				y[i] -= m.gxDie * x[j]
				y[n+i] -= m.gxSpr * x[n+j]
			}
			if col < g.W-1 {
				j := i + g.H
				y[i] -= m.gxDie * x[j]
				y[n+i] -= m.gxSpr * x[n+j]
			}
			if row > 0 {
				j := i - 1
				y[i] -= m.gyDie * x[j]
				y[n+i] -= m.gySpr * x[n+j]
			}
			if row < g.H-1 {
				j := i + 1
				y[i] -= m.gyDie * x[j]
				y[n+i] -= m.gySpr * x[n+j]
			}
			// Vertical coupling through the TIM.
			y[i] -= m.gTIM * xs
			y[n+i] -= m.gTIM * xd
		}
	}
}

// SteadyState solves G·T = P for the equilibrium temperature rise under the
// per-die-cell power vector (length n) and returns die temperatures in °C.
func (m *Model) SteadyState(cellPowerW []float64) ([]float64, error) {
	if len(cellPowerW) != m.n {
		panic("thermal: SteadyState power length mismatch")
	}
	tr := m.NewTransient()
	if err := tr.SetSteadyState(cellPowerW); err != nil {
		return nil, err
	}
	return tr.DieTemperatures(), nil
}

// Step advances one time step under the per-die-cell power vector (length n)
// and returns the die-layer temperatures in °C (a fresh slice). See StepInto
// for the allocation-free form.
func (tr *Transient) Step(cellPowerW []float64) ([]float64, error) {
	dst := make([]float64, tr.m.n)
	if err := tr.StepInto(dst, cellPowerW); err != nil {
		return nil, err
	}
	return dst, nil
}

// DieTemperatures returns the current die-layer temperatures in °C.
func (tr *Transient) DieTemperatures() []float64 {
	out := make([]float64, tr.m.n)
	for i := range out {
		out[i] = tr.t[i] + tr.m.Cfg.AmbientC
	}
	return out
}

// SpreaderTemperatures returns the current spreader-layer temperatures in °C.
func (tr *Transient) SpreaderTemperatures() []float64 {
	out := make([]float64, tr.m.n)
	for i := range out {
		out[i] = tr.t[tr.m.n+i] + tr.m.Cfg.AmbientC
	}
	return out
}
