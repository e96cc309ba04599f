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

// ensembleRun simulates a small ensemble on m the way dataset generation
// does: three runs, each started at its own steady state, stepped in lock
// step through StepBatchInto under power maps that change every step. It
// returns every step's die temperatures of every run, and the steady
// states' die and spreader temperatures.
func ensembleRun(t *testing.T, m *Model, steps int) [][]float64 {
	t.Helper()
	n := m.Grid.N()
	const runs = 3
	trs := make([]*Transient, runs)
	power := make([][]float64, runs)
	dst := make([][]float64, runs)
	var out [][]float64
	for r := range trs {
		trs[r] = m.NewTransient()
		power[r] = make([]float64, n)
		dst[r] = make([]float64, n)
		for i := range power[r] {
			power[r][i] = 0.01 + 0.02*math.Abs(math.Sin(float64(3*i+r)))
		}
		if err := trs[r].SetSteadyState(power[r]); err != nil {
			t.Fatal(err)
		}
		out = append(out, trs[r].DieTemperatures(), trs[r].SpreaderTemperatures())
	}
	for s := 0; s < steps; s++ {
		for r := range power {
			for i := range power[r] {
				power[r][i] = 0.01 + 0.03*math.Abs(math.Sin(0.1*float64(s*n+i)+float64(r)))
			}
		}
		if err := m.StepBatchInto(trs, dst, power); err != nil {
			t.Fatal(err)
		}
		for r := range dst {
			out = append(out, append([]float64(nil), dst[r]...))
		}
	}
	return out
}

func sameBits(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d maps against %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return fmt.Errorf("map %d cell %d: %v against %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// TestFactorCacheBitIdenticalToUncached pins that a model whose factors
// come from the cache, both the one that factored them and a later one
// that reuses them, simulates bitwise what a model factoring its own
// systems simulates, with and without leakage, on a wide and a tall grid.
func TestFactorCacheBitIdenticalToUncached(t *testing.T) {
	leak := &LeakageModel{BaseWPerCell: 2e-4, TRefC: 60, TSlopeC: 25}
	for _, g := range []floorplan.Grid{{W: 12, H: 10}, {W: 7, H: 19}} {
		for _, cfg := range []Config{{}, {Leakage: leak}} {
			c := newFactorCache(factorCacheBytes)
			first := newModel(g, cfg, c)
			second := newModel(g, cfg, c)
			if first.facA != second.facA || first.facG != second.facG {
				t.Fatalf("%dx%d: the second model did not reuse the cached factors", g.W, g.H)
			}
			if c.builds != 1 {
				t.Fatalf("%dx%d: %d factorizations for one key", g.W, g.H, c.builds)
			}
			want := ensembleRun(t, newModel(g, cfg, nil), 12)
			for name, m := range map[string]*Model{"factoring": first, "reusing": second} {
				if err := sameBits(ensembleRun(t, m, 12), want); err != nil {
					t.Fatalf("%dx%d leakage=%v %s model: %v", g.W, g.H, cfg.Leakage != nil, name, err)
				}
			}
		}
	}
}

// TestFactorCacheSplitsOnSystemConfig pins that every Config field A or G
// is assembled from, and the grid, selects its own factors, and that the
// factors it gets are the ones its own systems factor to.
func TestFactorCacheSplitsOnSystemConfig(t *testing.T) {
	g := floorplan.Grid{W: 9, H: 8}
	c := newFactorCache(factorCacheBytes)
	base := newModel(g, Config{}, c)
	variants := map[string]struct {
		g   floorplan.Grid
		cfg Config
	}{
		"grid":            {floorplan.Grid{W: 8, H: 9}, Config{}},
		"dt":              {g, Config{DtSeconds: 20e-3}},
		"die width":       {g, Config{DieWidthM: 14e-3}},
		"die height":      {g, Config{DieHeightM: 10e-3}},
		"die thickness":   {g, Config{DieThicknessM: 0.5e-3}},
		"spreader":        {g, Config{SpreaderThicknessM: 1e-3}},
		"die material":    {g, Config{Die: Material{Conductivity: 150, VolumetricC: 1.63e6}}},
		"spreader metal":  {g, Config{Spreader: Material{Conductivity: 390, VolumetricC: 3.0e6}}},
		"TIM":             {g, Config{TIMConductivity: 2}},
		"TIM thickness":   {g, Config{TIMThicknessM: 80e-6}},
		"sink resistance": {g, Config{SinkResistanceKPerW: 0.5}},
	}
	seen := map[*mat.BandCholesky]string{base.facA: "base"}
	for name, v := range variants {
		m := newModel(v.g, v.cfg, c)
		if m.facA == base.facA || m.facG == base.facG {
			t.Fatalf("%s: shares the base model's factors", name)
		}
		if other, dup := seen[m.facA]; dup {
			t.Fatalf("%s: shares %s's factors", name, other)
		}
		seen[m.facA] = name
		if err := sameBits(ensembleRun(t, m, 4), ensembleRun(t, newModel(v.g, v.cfg, nil), 4)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if c.builds != 1+len(variants) {
		t.Fatalf("%d factorizations for %d keys", c.builds, 1+len(variants))
	}
}

// TestFactorCacheSharesAcrossAmbientAndLeakage pins that the ambient
// temperature and the leakage model, which enter only the right-hand
// sides, share one factorization, and that each model still steps exactly
// as one factoring its own systems.
func TestFactorCacheSharesAcrossAmbientAndLeakage(t *testing.T) {
	g := floorplan.Grid{W: 10, H: 6}
	c := newFactorCache(factorCacheBytes)
	base := newModel(g, Config{}, c)
	for name, cfg := range map[string]Config{
		"ambient": {AmbientC: 30},
		"leakage": {Leakage: &LeakageModel{BaseWPerCell: 1e-4, TRefC: 50, TSlopeC: 20}},
		"both":    {AmbientC: 55, Leakage: &LeakageModel{BaseWPerCell: 3e-4, TRefC: 70, TSlopeC: 30}},
	} {
		m := newModel(g, cfg, c)
		if m.facA != base.facA || m.facG != base.facG {
			t.Fatalf("%s: factored again", name)
		}
		if cfg.AmbientC != 0 && m.Cfg.AmbientC != cfg.AmbientC || m.Cfg.Leakage != cfg.Leakage {
			t.Fatalf("%s: config %+v not kept", name, m.Cfg)
		}
		if err := sameBits(ensembleRun(t, m, 8), ensembleRun(t, newModel(g, cfg, nil), 8)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if c.builds != 1 {
		t.Fatalf("%d factorizations, want 1", c.builds)
	}
}

// TestFactorCacheConcurrentFirstUseFactorsOnce starts several models of
// one new key at once: one factorization runs and every model gets its
// factors (run under -race in CI).
func TestFactorCacheConcurrentFirstUseFactorsOnce(t *testing.T) {
	g := floorplan.Grid{W: 14, H: 12}
	c := newFactorCache(factorCacheBytes)
	const users = 8
	models := make([]*Model, users)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for u := range models {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			<-start
			models[u] = newModel(g, Config{}, c)
			tr := models[u].NewTransient()
			if err := tr.SetSteadyState(make([]float64, g.N())); err != nil {
				t.Error(err)
			}
		}(u)
	}
	close(start)
	wg.Wait()
	if c.builds != 1 {
		t.Fatalf("%d factorizations for %d concurrent first uses", c.builds, users)
	}
	for u, m := range models {
		if m.facA != models[0].facA || m.facG != models[0].facG || m.facA == nil {
			t.Fatalf("model %d has other factors", u)
		}
	}
}

// TestFactorCacheEvictsLeastRecentlyUsed fills a cache sized for two
// pairs: a third key evicts the least recently used one, which factors
// again on its next use. A pair larger than the budget and a failed
// factorization are not kept.
func TestFactorCacheEvictsLeastRecentlyUsed(t *testing.T) {
	g := floorplan.Grid{W: 12, H: 10}
	cfg := func(dt float64) Config { return Config{DtSeconds: dt} }
	pairBytes := newModel(g, cfg(1e-3), nil).facA.Bytes() * 2
	c := newFactorCache(2 * pairBytes)
	a := newModel(g, cfg(1e-3), c)
	newModel(g, cfg(2e-3), c)
	newModel(g, cfg(1e-3), c) // a is now the most recently used
	newModel(g, cfg(3e-3), c) // evicts the 2 ms pair
	if c.bytes != 2*pairBytes || len(c.byKey) != 2 || c.lru.Len() != 2 {
		t.Fatalf("cache holds %d bytes in %d entries, want %d in 2", c.bytes, len(c.byKey), 2*pairBytes)
	}
	if _, ok := c.byKey[newFactorKey(g, cfg(2e-3))]; ok {
		t.Fatal("the least recently used pair survived")
	}
	if m := newModel(g, cfg(1e-3), c); m.facA != a.facA {
		t.Fatal("the most recently used pair was evicted")
	}
	builds := c.builds
	newModel(g, cfg(2e-3), c)
	if c.builds != builds+1 {
		t.Fatal("the evicted pair was not factored again")
	}

	small := newFactorCache(pairBytes - 1)
	newModel(g, Config{}, small)
	if len(small.byKey) != 0 || small.bytes != 0 {
		t.Fatalf("a pair over the budget was kept (%d bytes)", small.bytes)
	}

	// A negative sink resistance makes G indefinite (see
	// TestFactorErrorsStayPerMatrix): the failure reaches the model and is
	// not cached.
	bad := newModel(floorplan.Grid{W: 6, H: 5}, Config{SinkResistanceKPerW: -0.35}, c)
	if err := bad.NewTransient().SetSteadyState(make([]float64, 30)); !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("SetSteadyState error %v, want %v", err, mat.ErrSingular)
	}
	if _, ok := c.byKey[newFactorKey(bad.Grid, bad.Cfg)]; ok {
		t.Fatal("a failed factorization was cached")
	}
}
