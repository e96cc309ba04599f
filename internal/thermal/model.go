// Package thermal implements a compact transient RC thermal model of a
// packaged die, standing in for the 3D-ICE simulator used by the paper.
//
// The model is the same discretization class as 3D-ICE: the die and the heat
// spreader are each divided into the same W×H grid of cells; every cell gets
// a lumped thermal capacitance; neighbouring cells in a layer are joined by
// lateral conductances; die cells connect vertically through the thermal
// interface material (TIM) to spreader cells; spreader cells connect through
// the per-area share of the heat-sink resistance to ambient. Power is
// injected in the die layer. Time integration is backward Euler (always
// stable).
//
// The backward-Euler system matrix A = C/dt + G is constant across all
// steps, so the model factors it once as a banded Cholesky under an
// interleaved die/spreader ordering (bandwidth 2·min(W,H) instead of n under
// the layer-major ordering) and advances every step with two O(n·bw) triangular
// substitutions — exact and with deterministic per-step cost. The tests
// check it against a dense Cholesky solve of the same system; see DESIGN.md.
package thermal

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/mat"
)

// Material bundles the two bulk properties the RC model needs.
type Material struct {
	Conductivity float64 // W/(m·K)
	VolumetricC  float64 // J/(m³·K)
}

// Standard materials.
var (
	Silicon = Material{Conductivity: 120, VolumetricC: 1.63e6} // hot silicon
	Copper  = Material{Conductivity: 390, VolumetricC: 3.40e6}
)

// Config describes the package stack. The zero value is completed by
// defaults() to a T1-class 12 mm × 11.2 mm die with a copper spreader and a
// forced-air sink.
type Config struct {
	DieWidthM  float64 // die extent along the grid's W axis [m]
	DieHeightM float64 // die extent along the grid's H axis [m]

	DieThicknessM      float64
	SpreaderThicknessM float64

	Die      Material
	Spreader Material

	TIMConductivity float64 // W/(m·K)
	TIMThicknessM   float64

	SinkResistanceKPerW float64 // junction-to-ambient tail below the spreader
	AmbientC            float64

	DtSeconds float64 // transient time step

	// Leakage, if non-nil, adds temperature-dependent leakage power to every
	// die cell, closing the electro-thermal feedback loop.
	Leakage *LeakageModel
}

// LeakageModel is a standard exponential leakage fit:
// P_leak(T) = BaseWPerCell · exp((T − TRefC)/TSlopeC) per die cell.
type LeakageModel struct {
	BaseWPerCell float64
	TRefC        float64
	TSlopeC      float64
}

// Power returns the leakage power of one cell at temperature tC (°C).
func (l *LeakageModel) Power(tC float64) float64 {
	return l.BaseWPerCell * math.Exp((tC-l.TRefC)/l.TSlopeC)
}

func (c *Config) defaults() {
	if c.DieWidthM == 0 {
		c.DieWidthM = 12e-3
	}
	if c.DieHeightM == 0 {
		c.DieHeightM = 11.2e-3
	}
	if c.DieThicknessM == 0 {
		c.DieThicknessM = 0.35e-3
	}
	if c.SpreaderThicknessM == 0 {
		c.SpreaderThicknessM = 2e-3
	}
	if c.Die == (Material{}) {
		c.Die = Silicon
	}
	if c.Spreader == (Material{}) {
		c.Spreader = Copper
	}
	if c.TIMConductivity == 0 {
		c.TIMConductivity = 4
	}
	if c.TIMThicknessM == 0 {
		c.TIMThicknessM = 40e-6
	}
	if c.SinkResistanceKPerW == 0 {
		c.SinkResistanceKPerW = 0.35
	}
	if c.AmbientC == 0 {
		c.AmbientC = 45
	}
	if c.DtSeconds == 0 {
		c.DtSeconds = 10e-3
	}
}

// Model is an assembled RC network for one grid. The unknown vector stacks
// die-cell temperature rises (indices [0,n)) above spreader-cell rises
// (indices [n,2n)), both relative to ambient.
type Model struct {
	Grid floorplan.Grid
	Cfg  Config

	n int // cells per layer

	// Conductances [W/K].
	gxDie, gyDie float64 // lateral, die layer
	gxSpr, gySpr float64 // lateral, spreader layer
	gTIM         float64 // die cell ↔ spreader cell
	gSink        float64 // spreader cell ↔ ambient

	// Capacitances [J/K].
	cDie, cSpr float64

	diag []float64 // diagonal of G (conductance matrix), length 2n

	ord []int // banded-system cell permutation (see cellOrder)

	// Banded Cholesky factors of A = C/dt + G (transient steps) and G
	// (steady states), assembled under the interleaved die/spreader
	// ordering. Taken by NewModel from the process's factor cache, which
	// factors each grid and package once (factors.go), and then shared
	// read-only by every Transient of this model — concurrent
	// dataset-generation workers all solve against the same factor — and
	// by every model of the same grid and package. A failed factorization
	// is kept and returned by the first call that needs that factor.
	facA, facG *mat.BandCholesky
	errA, errG error
}

// NewModel assembles the RC network for grid g under cfg (zero fields take
// defaults) and takes its two banded factors from the process's factor
// cache. The first model of a grid and package factors them, which costs
// O(n·bw²); later ones, whatever their ambient temperature or leakage,
// reuse them.
func NewModel(g floorplan.Grid, cfg Config) *Model {
	return newModel(g, cfg, factors)
}

// newModel is NewModel against the factor cache c; with c nil the model
// factors its own systems. The tests pass their own caches.
func newModel(g floorplan.Grid, cfg Config, c *factorCache) *Model {
	cfg.defaults()
	if g.W <= 0 || g.H <= 0 {
		panic(fmt.Sprintf("thermal: invalid grid %dx%d", g.H, g.W))
	}
	dx := cfg.DieWidthM / float64(g.W)
	dy := cfg.DieHeightM / float64(g.H)
	area := dx * dy
	m := &Model{
		Grid:  g,
		Cfg:   cfg,
		n:     g.N(),
		gxDie: cfg.Die.Conductivity * dy * cfg.DieThicknessM / dx,
		gyDie: cfg.Die.Conductivity * dx * cfg.DieThicknessM / dy,
		gxSpr: cfg.Spreader.Conductivity * dy * cfg.SpreaderThicknessM / dx,
		gySpr: cfg.Spreader.Conductivity * dx * cfg.SpreaderThicknessM / dy,
		gTIM:  cfg.TIMConductivity * area / cfg.TIMThicknessM,
		gSink: area / (cfg.SinkResistanceKPerW * cfg.DieWidthM * cfg.DieHeightM),
		cDie:  cfg.Die.VolumetricC * area * cfg.DieThicknessM,
		cSpr:  cfg.Spreader.VolumetricC * area * cfg.SpreaderThicknessM,
	}
	m.diag = m.conductanceDiagonal()
	m.ord = m.cellOrder()
	p := c.pair(newFactorKey(g, cfg), m.factor)
	m.facA, m.facG, m.errA, m.errG = p.facA, p.facG, p.errA, p.errG
	return m
}

// conductanceDiagonal precomputes diag(G).
func (m *Model) conductanceDiagonal() []float64 {
	g := m.Grid
	d := make([]float64, 2*m.n)
	for row := 0; row < g.H; row++ {
		for col := 0; col < g.W; col++ {
			i := g.Index(row, col)
			var latDie, latSpr float64
			if col > 0 {
				latDie += m.gxDie
				latSpr += m.gxSpr
			}
			if col < g.W-1 {
				latDie += m.gxDie
				latSpr += m.gxSpr
			}
			if row > 0 {
				latDie += m.gyDie
				latSpr += m.gySpr
			}
			if row < g.H-1 {
				latDie += m.gyDie
				latSpr += m.gySpr
			}
			d[i] = latDie + m.gTIM
			d[m.n+i] = latSpr + m.gTIM + m.gSink
		}
	}
	return d
}

// cellOrder returns the permutation placing cell i's unknowns at
// 2·ord[i] (die) and 2·ord[i]+1 (spreader) in the banded system, chosen so
// adjacent-in-order cells are neighbours along the grid's *minor*
// dimension: the identity (column-stacked) order when H ≤ W, the row-major
// transpose when H > W. Either way the widest coupling — the lateral hop
// along the major dimension — sits 2·min(W,H) unknowns away, so the
// bandwidth is 2·min(W,H) regardless of the grid's orientation (the TIM
// coupling sits at 1 and the minor-dimension hop at 2). Compare n = W·H
// under the layer-major ordering.
func (m *Model) cellOrder() []int {
	g := m.Grid
	ord := make([]int, m.n)
	for row := 0; row < g.H; row++ {
		for col := 0; col < g.W; col++ {
			i := g.Index(row, col)
			if g.H > g.W {
				ord[i] = row*g.W + col
			} else {
				ord[i] = i
			}
		}
	}
	return ord
}

// bandwidth returns the number of sub-diagonals of A (and G) under the
// cellOrder interleaving (clamped by NewSymBand for degenerate grids).
func (m *Model) bandwidth() int {
	minor := m.Grid.H
	if m.Grid.W < minor {
		minor = m.Grid.W
	}
	return 2 * minor
}

// assembleBand builds the conductance matrix G — plus the C/dt mass terms
// when withMass is set, giving the backward-Euler matrix A — in symmetric
// band form under the cellOrder interleaving.
func (m *Model) assembleBand(withMass bool) *mat.SymBand {
	g := m.Grid
	n := m.n
	a := mat.NewSymBand(2*n, m.bandwidth())
	var cd, cs float64
	if withMass {
		cd = m.cDie / m.Cfg.DtSeconds
		cs = m.cSpr / m.Cfg.DtSeconds
	}
	ord := m.ord
	for row := 0; row < g.H; row++ {
		for col := 0; col < g.W; col++ {
			i := g.Index(row, col)
			oi := ord[i]
			a.Set(2*oi, 2*oi, m.diag[i]+cd)
			a.Set(2*oi+1, 2*oi+1, m.diag[n+i]+cs)
			a.Set(2*oi+1, 2*oi, -m.gTIM)
			if row > 0 {
				oj := ord[i-1]
				a.Set(2*oi, 2*oj, -m.gyDie)
				a.Set(2*oi+1, 2*oj+1, -m.gySpr)
			}
			if col > 0 {
				oj := ord[i-g.H]
				a.Set(2*oi, 2*oj, -m.gxDie)
				a.Set(2*oi+1, 2*oj+1, -m.gxSpr)
			}
		}
	}
	return a
}

// factor computes both banded factors, A on a second goroutine and G on
// the caller's, and returns when both are done. Every run needs both before
// its first step (G for its steady start, A for the steps), so building
// them here, at the same time, spares the run waiting on each in turn.
// Factoring at construction rather than on first use also keeps the
// factorizations' scratch from overlapping what the caller allocates
// afterwards, such as a generated ensemble's snapshot matrix, which lowers
// the process's peak memory.
func (m *Model) factor() (facA, facG *mat.BandCholesky, errA, errG error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		facA, errA = mat.NewBandCholesky(m.assembleBand(true))
	}()
	facG, errG = mat.NewBandCholesky(m.assembleBand(false))
	<-done
	return facA, facG, errA, errG
}

// SystemBands returns freshly assembled copies of the two matrices the
// model factors, in its interleaved banded ordering: the backward-Euler
// matrix A = C/dt + G and the conductance matrix G. The banded solver's
// bit-identity tests and benchmarks run on them.
func (m *Model) SystemBands() (a, g *mat.SymBand) {
	return m.assembleBand(true), m.assembleBand(false)
}

// deinterleave unpacks the interleaved vector z (cell i's die and spreader
// unknowns at 2·ord[i] and 2·ord[i]+1) into the layer-major x (die rises in
// [0,n), spreader rises in [n,2n)).
func (m *Model) deinterleave(x, z []float64) {
	for i, oi := range m.ord {
		x[i] = z[2*oi]
		x[m.n+i] = z[2*oi+1]
	}
}
