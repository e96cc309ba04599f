package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// sharedEnv builds the quick-scale environment once for all experiment tests.
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func quickEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewEnv(QuickConfig())
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestNewEnvShapes(t *testing.T) {
	e := quickEnv(t)
	if e.DS.T() != e.Cfg.Snapshots || e.DS.N() != e.Cfg.Grid.N() {
		t.Fatalf("dataset shape (%d,%d)", e.DS.T(), e.DS.N())
	}
	if e.PCA.Basis.KMax() != e.Cfg.KMax || e.KLSE.Basis.KMax() != e.Cfg.KMax {
		t.Fatal("basis KMax wrong")
	}
}

func TestFig2SpectrumDecaysFast(t *testing.T) {
	e := quickEnv(t)
	r, err := e.Fig2(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Eigenvalues) != e.Cfg.KMax {
		t.Fatalf("spectrum length %d", len(r.Eigenvalues))
	}
	// Paper claim: informative content decays rapidly. λ₁/λ₁₀ spans orders
	// of magnitude on thermal data.
	if ratio := r.Eigenvalues[0] / r.Eigenvalues[9]; ratio < 50 {
		t.Fatalf("λ1/λ10 = %v — spectrum not decaying like thermal data", ratio)
	}
	if len(r.Renders) != 4 {
		t.Fatalf("rendered %d maps", len(r.Renders))
	}
	for _, s := range r.Renders {
		if !strings.Contains(s, "\n") {
			t.Fatal("render looks empty")
		}
	}
}

func TestFig3aEigenMapsDominateDCT(t *testing.T) {
	e := quickEnv(t)
	r, err := e.Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.K) == 0 {
		t.Fatal("no K points")
	}
	for i := range r.K {
		// Proposition 1 optimality on the training set: EigenMaps MSE must
		// not exceed the DCT subspace's at any K.
		if r.MSEEigen[i] > r.MSEKLSE[i]*1.0001 {
			t.Fatalf("K=%d: EigenMaps MSE %v > k-LSE %v", r.K[i], r.MSEEigen[i], r.MSEKLSE[i])
		}
	}
	// And the error must decrease with K for both.
	for i := 1; i < len(r.K); i++ {
		if r.MSEEigen[i] > r.MSEEigen[i-1]*1.0001 {
			t.Fatalf("EigenMaps approximation error rose at K=%d", r.K[i])
		}
		if r.MSEKLSE[i] > r.MSEKLSE[i-1]*1.0001 {
			t.Fatalf("k-LSE approximation error rose at K=%d", r.K[i])
		}
	}
	// The paper's core observation: the PCA advantage grows with K
	// (exponentially lower error). Check the largest-K gap is substantial.
	last := len(r.K) - 1
	if r.MSEKLSE[last] < 5*r.MSEEigen[last] {
		t.Fatalf("at K=%d the EigenMaps advantage is only %vx — expected ≥5x",
			r.K[last], r.MSEKLSE[last]/r.MSEEigen[last])
	}
}

func TestFig3bEigenMapsWinAtModerateM(t *testing.T) {
	e := quickEnv(t)
	r, err := e.Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	// Beyond the smallest sensor budget, EigenMaps reconstruction must beat
	// k-LSE, and by a growing margin (Fig. 3(b)'s separation).
	for i := range r.M {
		if r.M[i] >= 8 && r.MSEEigen[i] > r.MSEKLSE[i] {
			t.Fatalf("M=%d: EigenMaps MSE %v > k-LSE %v", r.M[i], r.MSEEigen[i], r.MSEKLSE[i])
		}
	}
	first, last := 0, len(r.M)-1
	if r.MSEEigen[last] > r.MSEEigen[first]*0.5 {
		t.Fatalf("EigenMaps reconstruction error barely improves with M: %v → %v",
			r.MSEEigen[first], r.MSEEigen[last])
	}
	// Conditioning of the greedy layouts stays modest.
	for i, c := range r.CondEigen {
		if c > condCap {
			t.Fatalf("M=%d: κ=%v exceeds cap", r.M[i], c)
		}
	}
}

func TestFig3cNoiseTrends(t *testing.T) {
	e := quickEnv(t)
	r, err := e.Fig3c()
	if err != nil {
		t.Fatal(err)
	}
	// Error must fall as SNR rises, for both methods.
	for i := 1; i < len(r.SNRdB); i++ {
		if r.MSEEigen[i] > r.MSEEigen[i-1]*1.05 {
			t.Fatalf("EigenMaps MSE rose with SNR at %v dB", r.SNRdB[i])
		}
		if r.MSEKLSE[i] > r.MSEKLSE[i-1]*1.05 {
			t.Fatalf("k-LSE MSE rose with SNR at %v dB", r.SNRdB[i])
		}
	}
	// EigenMaps must stay at or below k-LSE across the sweep (Fig. 3(c)).
	for i := range r.SNRdB {
		if r.MSEEigen[i] > r.MSEKLSE[i]*1.1 {
			t.Fatalf("SNR %v dB: EigenMaps %v above k-LSE %v", r.SNRdB[i], r.MSEEigen[i], r.MSEKLSE[i])
		}
	}
	if r.KEigen < 1 || r.KEigen > r.M {
		t.Fatalf("selected K=%d outside [1,%d]", r.KEigen, r.M)
	}
}

func TestFig4VisualComparison(t *testing.T) {
	e := quickEnv(t)
	r, err := e.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if r.MapIndices[0] == r.MapIndices[1] {
		t.Fatal("showcase maps not distinct")
	}
	for i := range r.MapIndices {
		if len(r.Originals[i]) != e.DS.N() || len(r.Eigen[i]) != e.DS.N() || len(r.KLSE[i]) != e.DS.N() {
			t.Fatal("map lengths wrong")
		}
		// EigenMaps reconstruction should be visibly better (or at least not
		// much worse) than k-LSE on the showcased maps.
		if r.MaxAbsEigen[i] > r.MaxAbsKLSE[i]*1.5 {
			t.Fatalf("map %d: EigenMaps worst error %v vs k-LSE %v", i, r.MaxAbsEigen[i], r.MaxAbsKLSE[i])
		}
	}
	if !strings.Contains(r.String(), "original") {
		t.Fatal("ASCII panels missing")
	}
}

func TestFig5GreedyBeatsEnergyOverall(t *testing.T) {
	e := quickEnv(t)
	r, err := e.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 5 claim: for each reconstruction method, greedy
	// allocation improves MSE over energy-center. Assert it in aggregate
	// (geometric mean over the M sweep) — individual points can cross.
	if g, en := geoMean(r.EigenGreedy), geoMean(r.EigenEnergy); g > en {
		t.Fatalf("EigenMaps: greedy geomean %v worse than energy %v", g, en)
	}
	if g, en := geoMean(r.KLSEGreedy), geoMean(r.KLSEEnergy); g > en {
		t.Fatalf("k-LSE: greedy geomean %v worse than energy %v", g, en)
	}
}

func geoMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(v)))
}

func TestFig6ConstraintCostsLittle(t *testing.T) {
	e := quickEnv(t)
	r, err := e.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: constrained reconstruction "degrades only slightly". Assert the
	// constrained MSE stays within an order of magnitude of free placement
	// across the sweep.
	for i := range r.M {
		if r.MSEConstrained[i] > r.MSEFree[i]*10+1e-9 {
			t.Fatalf("M=%d: constrained MSE %v ≫ free %v", r.M[i], r.MSEConstrained[i], r.MSEFree[i])
		}
	}
	if !strings.Contains(r.LayoutConstrained, "S") {
		t.Fatal("constrained layout has no sensors")
	}
	// In the constrained layout no 'S' may replace a cache cell: overlaying
	// the free-block render, every sensor row/col must map to an allowed cell.
	grid := e.DS.Grid
	maskLines := strings.Split(strings.TrimRight(r.MaskRender, "\n"), "\n")
	layLines := strings.Split(strings.TrimRight(r.LayoutConstrained, "\n"), "\n")
	for row := 0; row < grid.H; row++ {
		for col := 0; col < grid.W; col++ {
			if layLines[row][col] == 'S' && maskLines[row][col] == '#' {
				t.Fatalf("constrained sensor at forbidden cell (%d,%d)", row, col)
			}
		}
	}
	if !strings.Contains(r.MaskRender, "#") {
		t.Fatal("mask render missing forbidden zone")
	}
}

func TestHeadlineRuns(t *testing.T) {
	e := quickEnv(t)
	h, err := e.Headline()
	if err != nil {
		t.Fatal(err)
	}
	if h.Clean5.MSE > h.Clean4.MSE*1.2 {
		t.Fatalf("5 sensors (%v) much worse than 4 (%v)", h.Clean5.MSE, h.Clean4.MSE)
	}
	if h.Noisy16.MSE <= 0 {
		t.Fatal("noisy evaluation produced zero error — noise path broken")
	}
	if h.Noisy16K < 1 || h.Noisy16K > 16 {
		t.Fatalf("selected K=%d", h.Noisy16K)
	}
	if !strings.Contains(h.String(), "15 dB") {
		t.Fatal("headline report malformed")
	}
}
