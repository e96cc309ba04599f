package thermal

// Transient integrates the RC model in time with backward Euler.
//
// Each step solves A·t⁺ = C/dt·t + p with A = C/dt + G constant, so the
// step is two banded triangular substitutions against the model's
// factor-once Cholesky (exact, allocation-free, per-step cost independent of
// the power map). Multiple Transients may run concurrently over one shared
// Model: the model's factors and conductances are read-only once NewModel
// returns.
type Transient struct {
	m *Model
	// t holds temperature *rise above ambient* for all 2n unknowns; the
	// exported accessors convert to °C.
	t []float64

	z []float64 // interleaved right-hand side and solution (scratch)
}

// NewTransient starts a transient run from thermal equilibrium at ambient
// (zero rise everywhere).
func (m *Model) NewTransient() *Transient {
	return &Transient{
		m: m,
		t: make([]float64, 2*m.n),
		z: make([]float64, 2*m.n),
	}
}

// SetSteadyState initializes the run at the equilibrium for the given power
// map (length n), avoiding a long warm-up transient. It reuses the
// transient's scratch, so repeated calls allocate nothing.
func (tr *Transient) SetSteadyState(cellPowerW []float64) error {
	m := tr.m
	if len(cellPowerW) != m.n {
		panic("thermal: SetSteadyState power length mismatch")
	}
	if m.errG != nil {
		return m.errG
	}
	for i, oi := range m.ord {
		tr.z[2*oi] = cellPowerW[i]
		tr.z[2*oi+1] = 0
	}
	m.facG.SolveInto(tr.z, tr.z)
	m.deinterleave(tr.t, tr.z)
	return nil
}

// StepInto advances one time step under the per-die-cell power vector
// (length n) and writes the die-layer temperatures in °C into dst (length
// n). It allocates nothing. It is Model.StepBatchInto on one transient.
//
// If the model has a leakage configuration, leakage power computed from the
// *current* (pre-step) die temperatures is added to the injected power —
// the standard explicit electro-thermal coupling.
func (tr *Transient) StepInto(dst, cellPowerW []float64) error {
	return tr.m.StepBatchInto([]*Transient{tr}, [][]float64{dst}, [][]float64{cellPowerW})
}

// StepBatchInto advances every transient in trs, all runs of m, by one
// time step: trs[v] under cellPowerW[v], its die-layer temperatures in °C
// written into dst[v]. The right-hand sides are solved together, up to four
// per sweep over the factor (mat.BandCholesky.SolveBatchInto), so a step of
// several runs reads the factor once instead of once per run; this is the
// inner loop of dataset generation. Each run's arithmetic is the one it
// would do stepped alone, so its temperatures are bitwise those of its own
// StepInto. The transients must be distinct. It allocates nothing.
func (m *Model) StepBatchInto(trs []*Transient, dst, cellPowerW [][]float64) error {
	if len(dst) != len(trs) || len(cellPowerW) != len(trs) {
		panic("thermal: StepBatchInto length mismatch")
	}
	for v, tr := range trs {
		if tr.m != m {
			panic("thermal: StepBatchInto transient of another model")
		}
		if len(cellPowerW[v]) != m.n {
			panic("thermal: Step power length mismatch")
		}
		if len(dst[v]) != m.n {
			panic("thermal: Step dst length mismatch")
		}
	}
	if m.errA != nil {
		return m.errA
	}
	cd := m.cDie / m.Cfg.DtSeconds
	cs := m.cSpr / m.Cfg.DtSeconds
	var zbuf [4][]float64
	for lo := 0; lo < len(trs); lo += len(zbuf) {
		hi := min(lo+len(zbuf), len(trs))
		zs := zbuf[:hi-lo]
		for v := lo; v < hi; v++ {
			// Build the RHS directly in interleaved order, fusing the
			// permutation into the assembly pass.
			tr, pw := trs[v], cellPowerW[v]
			for i, oi := range m.ord {
				p := pw[i]
				if lk := m.Cfg.Leakage; lk != nil {
					p += lk.Power(tr.t[i] + m.Cfg.AmbientC)
				}
				tr.z[2*oi] = cd*tr.t[i] + p
				tr.z[2*oi+1] = cs * tr.t[m.n+i]
			}
			zs[v-lo] = tr.z
		}
		m.facA.SolveBatchInto(zs, zs)
		for v := lo; v < hi; v++ {
			tr, d := trs[v], dst[v]
			for i, oi := range m.ord {
				tr.t[i] = tr.z[2*oi]
				tr.t[m.n+i] = tr.z[2*oi+1]
				d[i] = tr.z[2*oi] + m.Cfg.AmbientC
			}
		}
	}
	return nil
}
