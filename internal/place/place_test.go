package place

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/basis"
	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/power"
)

// fixture: a deterministic orthonormal 40×4 basis on an 8×5 grid.
var (
	fixGrid = floorplan.Grid{W: 8, H: 5}
	fixPsi  = mat.RandomOrthonormal(40, 4, rand.New(rand.NewSource(99)))
)

func distinctSorted(t *testing.T, s []int, m, n int) {
	t.Helper()
	if len(s) != m {
		t.Fatalf("got %d sensors, want %d", len(s), m)
	}
	if !sort.IntsAreSorted(s) {
		t.Fatalf("not sorted: %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			t.Fatalf("duplicate sensor %d", s[i])
		}
	}
	for _, v := range s {
		if v < 0 || v >= n {
			t.Fatalf("sensor %d out of range", v)
		}
	}
}

func condOf(t *testing.T, psi *mat.Matrix, sensors []int) float64 {
	t.Helper()
	c, err := mat.Cond(psi.SelectRows(sensors))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGreedyBasics(t *testing.T) {
	g := &Greedy{}
	s, err := g.Allocate(Input{Psi: fixPsi, Grid: fixGrid, M: 8})
	if err != nil {
		t.Fatal(err)
	}
	distinctSorted(t, s, 8, 40)
	if math.IsInf(condOf(t, fixPsi, s), 1) {
		t.Fatal("greedy produced rank-deficient selection")
	}
}

func TestGreedyBeatsRandomOnAverage(t *testing.T) {
	g := &Greedy{}
	s, err := g.Allocate(Input{Psi: fixPsi, Grid: fixGrid, M: 6})
	if err != nil {
		t.Fatal(err)
	}
	greedyCond := condOf(t, fixPsi, s)
	var randCondSum float64
	const trials = 20
	for i := 0; i < trials; i++ {
		r := &Random{Seed: int64(i)}
		rs, err := r.Allocate(Input{Psi: fixPsi, Grid: fixGrid, M: 6})
		if err != nil {
			t.Fatal(err)
		}
		c := condOf(t, fixPsi, rs)
		if math.IsInf(c, 1) {
			c = 100 // cap degenerate draws
		}
		randCondSum += c
	}
	if greedyCond > randCondSum/trials {
		t.Fatalf("greedy κ %v worse than random average %v", greedyCond, randCondSum/trials)
	}
}

func TestGreedyNearOptimalOnTinyInstance(t *testing.T) {
	// Certify against the exhaustive optimum on an instance small enough to
	// enumerate: 14 rows, K=2, M=3.
	rng := rand.New(rand.NewSource(5))
	psi := mat.RandomOrthonormal(14, 2, rng)
	in := Input{Psi: psi, Grid: floorplan.Grid{W: 7, H: 2}, M: 3}
	opt, err := (&Exhaustive{}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	grd, err := (&Greedy{}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	co, cg := condOf(t, psi, opt), condOf(t, psi, grd)
	if cg > 2.5*co {
		t.Fatalf("greedy κ %v not within 2.5× of optimal %v", cg, co)
	}
}

func TestGreedyRespectsMask(t *testing.T) {
	mask := make([]bool, 40)
	for i := 10; i < 30; i++ {
		mask[i] = true
	}
	s, err := (&Greedy{}).Allocate(Input{Psi: fixPsi, Grid: fixGrid, M: 6, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s {
		if !mask[v] {
			t.Fatalf("sensor %d outside mask", v)
		}
	}
}

func TestGreedyErrors(t *testing.T) {
	if _, err := (&Greedy{}).Allocate(Input{Grid: fixGrid, M: 4}); !errors.Is(err, ErrBadInput) {
		t.Fatal("missing Psi should fail")
	}
	if _, err := (&Greedy{}).Allocate(Input{Psi: fixPsi, M: 2}); !errors.Is(err, ErrBadInput) {
		t.Fatal("M < K should fail")
	}
	tiny := make([]bool, 40)
	tiny[0] = true
	if _, err := (&Greedy{}).Allocate(Input{Psi: fixPsi, M: 5, Mask: tiny}); !errors.Is(err, ErrTooFewCells) {
		t.Fatal("too-small mask should fail")
	}
	if _, err := (&Greedy{}).Allocate(Input{Psi: fixPsi, M: 0}); !errors.Is(err, ErrBadInput) {
		t.Fatal("M=0 should fail")
	}
}

func TestGreedyRankCheckScheduleAblation(t *testing.T) {
	// The reference checking rank at every step must give the same
	// allocation as Allocate's windowed schedule.
	for seed := int64(0); seed < 5; seed++ {
		psi := mat.RandomOrthonormal(24, 3, rand.New(rand.NewSource(seed)))
		in := Input{Psi: psi, Grid: floorplan.Grid{W: 6, H: 4}, M: 5}
		a, err := (&Greedy{}).Allocate(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := refAllocate(refOptions{every: true}, in, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("seed %d: schedule changed result size", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: schedules disagree: %v vs %v", seed, a, b)
			}
		}
	}
}

func TestGreedyHeapMatchesRescanAblation(t *testing.T) {
	// The lazy max-heap must reproduce the linear-rescan victim sequence of
	// the reference exactly — same tie-breaks, same rank-safeguard
	// interactions — so the two yield identical allocations on every
	// instance: Allocate's heap, and the reference's own heap in the signed
	// and every-step arms it keeps.
	for seed := int64(0); seed < 8; seed++ {
		psi := mat.RandomOrthonormal(36, 4, rand.New(rand.NewSource(seed)))
		in := Input{Psi: psi, Grid: floorplan.Grid{W: 6, H: 6}, M: 6}
		for _, opt := range []refOptions{{}, {signed: true}, {every: true}, {signed: true, every: true}} {
			rescan, err := refAllocate(opt, in, true)
			if err != nil {
				t.Fatal(err)
			}
			heap, err := refAllocate(opt, in, false)
			if err != nil {
				t.Fatal(err)
			}
			if opt == (refOptions{}) {
				if heap, err = (&Greedy{}).Allocate(in); err != nil {
					t.Fatal(err)
				}
			}
			if fmt.Sprint(heap) != fmt.Sprint(rescan) {
				t.Fatalf("seed %d %+v: heap %v vs rescan %v", seed, opt, heap, rescan)
			}
		}
	}
}

func TestGreedyHeapMatchesRescanMasked(t *testing.T) {
	// Same equivalence under a placement mask and a tight sensor budget,
	// where the rank safeguard actually participates.
	mask := make([]bool, 40)
	for i := 4; i < 36; i++ {
		mask[i] = true
	}
	in := Input{Psi: fixPsi, Grid: fixGrid, M: 5, Mask: mask}
	heap, err := (&Greedy{}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	rescan, err := refAllocate(refOptions{}, in, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(heap) != len(rescan) {
		t.Fatalf("heap %v vs rescan %v", heap, rescan)
	}
	for i := range heap {
		if heap[i] != rescan[i] {
			t.Fatalf("heap %v vs rescan %v", heap, rescan)
		}
	}
}

func TestGreedySkipsZeroRows(t *testing.T) {
	psi := fixPsi.Clone()
	for j := 0; j < psi.Cols(); j++ {
		psi.Set(7, j, 0) // dead row
	}
	s, err := (&Greedy{}).Allocate(Input{Psi: psi, Grid: fixGrid, M: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s {
		if v == 7 {
			t.Fatal("zero row selected")
		}
	}
}

func energyFixture() []float64 {
	// Energy concentrated in the top-left quadrant of an 8×5 grid.
	e := make([]float64, fixGrid.N())
	for row := 0; row < fixGrid.H; row++ {
		for col := 0; col < fixGrid.W; col++ {
			v := 0.1
			if row < 2 && col < 4 {
				v = 10
			}
			e[fixGrid.Index(row, col)] = v
		}
	}
	return e
}

func TestEnergyCenterBasics(t *testing.T) {
	s, err := (&EnergyCenter{}).Allocate(Input{Grid: fixGrid, Energy: energyFixture(), M: 4})
	if err != nil {
		t.Fatal(err)
	}
	distinctSorted(t, s, 4, fixGrid.N())
}

func TestEnergyCenterFollowsEnergy(t *testing.T) {
	s, err := (&EnergyCenter{}).Allocate(Input{Grid: fixGrid, Energy: energyFixture(), M: 4})
	if err != nil {
		t.Fatal(err)
	}
	inHot := 0
	for _, idx := range s {
		row, col := fixGrid.RowCol(idx)
		if row < 2 && col < 4 {
			inHot++
		}
	}
	if inHot < 3 {
		t.Fatalf("only %d of 4 sensors in the high-energy quadrant: %v", inHot, s)
	}
}

func TestEnergyCenterRespectsMask(t *testing.T) {
	mask := make([]bool, fixGrid.N())
	// Forbid the hot quadrant entirely.
	for row := 0; row < fixGrid.H; row++ {
		for col := 0; col < fixGrid.W; col++ {
			mask[fixGrid.Index(row, col)] = !(row < 2 && col < 4)
		}
	}
	s, err := (&EnergyCenter{}).Allocate(Input{Grid: fixGrid, Energy: energyFixture(), M: 5, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	distinctSorted(t, s, 5, fixGrid.N())
	for _, idx := range s {
		if !mask[idx] {
			t.Fatalf("sensor %d violates mask", idx)
		}
	}
}

func TestEnergyCenterErrors(t *testing.T) {
	if _, err := (&EnergyCenter{}).Allocate(Input{M: 2}); !errors.Is(err, ErrBadInput) {
		t.Fatal("missing grid should fail")
	}
	if _, err := (&EnergyCenter{}).Allocate(Input{Grid: fixGrid, Energy: []float64{1}, M: 2}); !errors.Is(err, ErrBadInput) {
		t.Fatal("short energy map should fail")
	}
}

func TestEnergyCenterSingleSensor(t *testing.T) {
	s, err := (&EnergyCenter{}).Allocate(Input{Grid: fixGrid, Energy: energyFixture(), M: 1})
	if err != nil {
		t.Fatal(err)
	}
	row, col := fixGrid.RowCol(s[0])
	if !(row < 2 && col < 4) {
		t.Fatalf("single sensor at (%d,%d), expected inside the hot quadrant", row, col)
	}
}

func TestRandomDeterministicAndMasked(t *testing.T) {
	mask := make([]bool, fixGrid.N())
	for i := 0; i < 20; i++ {
		mask[i] = true
	}
	in := Input{Grid: fixGrid, M: 5, Mask: mask}
	a, err := (&Random{Seed: 3}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Random{Seed: 3}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random allocator not deterministic by seed")
		}
		if !mask[a[i]] {
			t.Fatal("random allocator violated mask")
		}
	}
	distinctSorted(t, a, 5, fixGrid.N())
}

func TestUniformSpreads(t *testing.T) {
	g := floorplan.Grid{W: 12, H: 12}
	s, err := (&Uniform{}).Allocate(Input{Grid: g, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	distinctSorted(t, s, 4, g.N())
	// 4 sensors on a 12×12 grid: one per quadrant.
	quadrants := make(map[[2]bool]int)
	for _, idx := range s {
		row, col := g.RowCol(idx)
		quadrants[[2]bool{row < 6, col < 6}]++
	}
	if len(quadrants) != 4 {
		t.Fatalf("sensors not spread across quadrants: %v", s)
	}
}

func TestUniformMasked(t *testing.T) {
	g := floorplan.Grid{W: 6, H: 6}
	mask := make([]bool, g.N())
	for i := range mask {
		row, _ := g.RowCol(i)
		mask[i] = row >= 3 // only bottom half allowed
	}
	s, err := (&Uniform{}).Allocate(Input{Grid: g, M: 4, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range s {
		if !mask[idx] {
			t.Fatal("uniform allocator violated mask")
		}
	}
}

func TestExhaustiveOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	psi := mat.RandomOrthonormal(9, 2, rng)
	in := Input{Psi: psi, Grid: floorplan.Grid{W: 3, H: 3}, M: 2}
	best, err := (&Exhaustive{}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	bestCond := condOf(t, psi, best)
	// No pair may beat it.
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			c, err := mat.Cond(psi.SelectRows([]int{i, j}))
			if err != nil {
				t.Fatal(err)
			}
			if c < bestCond-1e-9 {
				t.Fatalf("pair (%d,%d) κ=%v beats exhaustive %v", i, j, c, bestCond)
			}
		}
	}
}

func TestExhaustiveLimit(t *testing.T) {
	psi := mat.RandomOrthonormal(40, 2, rand.New(rand.NewSource(9)))
	_, err := (&Exhaustive{Limit: 10}).Allocate(Input{Psi: psi, Grid: fixGrid, M: 5})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("expected limit error, got %v", err)
	}
}

func TestAllocatorNames(t *testing.T) {
	for _, tc := range []struct {
		a    Allocator
		want string
	}{
		{&Greedy{}, "greedy"},
		{&EnergyCenter{}, "energy"},
		{&Random{}, "random"},
		{&Uniform{}, "uniform"},
		{&Exhaustive{}, "exhaustive"},
	} {
		if tc.a.Name() != tc.want {
			t.Fatalf("Name = %q, want %q", tc.a.Name(), tc.want)
		}
	}
}

func TestBinomial(t *testing.T) {
	for _, tc := range []struct{ n, m, want int }{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {6, 3, 20}, {4, 5, 0},
	} {
		if got := binomial(tc.n, tc.m); got != tc.want {
			t.Fatalf("C(%d,%d) = %d, want %d", tc.n, tc.m, got, tc.want)
		}
	}
	if binomial(500, 250) != -1 {
		t.Fatal("expected overflow sentinel")
	}
}

func TestDOptimalBasics(t *testing.T) {
	d := &DOptimal{}
	s, err := d.Allocate(Input{Psi: fixPsi, Grid: fixGrid, M: 8})
	if err != nil {
		t.Fatal(err)
	}
	distinctSorted(t, s, 8, 40)
	if c := condOf(t, fixPsi, s); math.IsInf(c, 1) || c > 50 {
		t.Fatalf("d-optimal produced poorly conditioned set: κ=%v", c)
	}
}

func TestDOptimalRespectsMask(t *testing.T) {
	mask := make([]bool, 40)
	for i := 5; i < 25; i++ {
		mask[i] = true
	}
	s, err := (&DOptimal{}).Allocate(Input{Psi: fixPsi, Grid: fixGrid, M: 6, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s {
		if !mask[v] {
			t.Fatalf("sensor %d outside mask", v)
		}
	}
}

func TestDOptimalErrors(t *testing.T) {
	if _, err := (&DOptimal{}).Allocate(Input{Grid: fixGrid, M: 4}); !errors.Is(err, ErrBadInput) {
		t.Fatal("missing Psi should fail")
	}
	if _, err := (&DOptimal{}).Allocate(Input{Psi: fixPsi, M: 2}); !errors.Is(err, ErrBadInput) {
		t.Fatal("M < K should fail")
	}
}

func TestDOptimalComparableToBackwardGreedy(t *testing.T) {
	// Forward D-optimal and backward correlation elimination chase the same
	// goal; their condition numbers must land in the same ballpark on the
	// shared fixture (within 3x of each other).
	in := Input{Psi: fixPsi, Grid: fixGrid, M: 8}
	fwd, err := (&DOptimal{}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := (&Greedy{}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	cf, cb := condOf(t, fixPsi, fwd), condOf(t, fixPsi, bwd)
	if cf > 3*cb && cb > 3*cf {
		t.Fatalf("allocators diverge wildly: forward κ=%v backward κ=%v", cf, cb)
	}
	if ratio := cf / cb; ratio > 5 || ratio < 0.2 {
		t.Fatalf("forward/backward κ ratio %v outside [0.2,5]", ratio)
	}
}

func TestShermanMorrisonAgainstDirectInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	k := 4
	a := mat.RandomSPD(k, rng)
	chol, err := mat.NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := mat.New(k, k)
	for j := 0; j < k; j++ {
		e := make([]float64, k)
		e[j] = 1
		inv.SetCol(j, chol.Solve(e))
	}
	v := []float64{0.5, -1, 2, 0.25}
	shermanMorrisonUpdate(inv, v)
	// Direct: (A + vvᵀ)⁻¹ via Cholesky.
	up := a.Clone()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			up.Add(i, j, v[i]*v[j])
		}
	}
	cholUp, err := mat.NewCholesky(up)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		e := make([]float64, k)
		e[j] = 1
		want := cholUp.Solve(e)
		for i := 0; i < k; i++ {
			if math.Abs(inv.At(i, j)-want[i]) > 1e-8 {
				t.Fatalf("SM update wrong at (%d,%d): %v vs %v", i, j, inv.At(i, j), want[i])
			}
		}
	}
}

func TestParseStrategies(t *testing.T) {
	for name, want := range map[string]string{
		"": "greedy", "greedy": "greedy", "energy": "energy",
		"random": "random", "uniform": "uniform", "d-optimal": "d-optimal",
	} {
		a, err := Parse(name, 7)
		if err != nil || a.Name() != want {
			t.Errorf("Parse(%q) = %v, %v; want %s", name, a, err, want)
		}
	}
	if r, _ := Parse("random", 7); r.(*Random).Seed != 7 {
		t.Error("Parse(random) dropped the seed")
	}
	for _, name := range []string{"doptimal", "Greedy", "exhaustive"} {
		if _, err := Parse(name, 0); err == nil {
			t.Errorf("Parse(%q) accepted an unknown strategy", name)
		}
	}
}

// TestGreedyBitIdenticalToReference pins Allocate's on-demand correlations
// over the K-major block to the serial reference (greedy_ref_test.go),
// which stores the R×R matrix: identical sensors through both kernel sets
// (mat's, AVX-512 where the CPU has it, and the scalar mat.Dot twins),
// against both victim engines of the reference, with and without a mask.
// The bases are random, trained, built to tie (small integers, and rows
// repeated or negated), and sized below, at and across the 64-column
// kernel width (R % 64 ≠ 0 included); every run from R rows down to M
// crosses each compaction of the block. Each run is made twice: with the
// running aggregates settling the tie-breaks they can, and with the slack
// at +∞, which sends every tie-break to the exact sums.
func TestGreedyBitIdenticalToReference(t *testing.T) {
	ds, err := dataset.Generate(floorplan.UltraSparcT1(), dataset.GenConfig{
		Grid: floorplan.Grid{W: 16, H: 14}, Snapshots: 80, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := basis.TrainPCA(ds, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := b.PsiK(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(164))
	// Small-integer rows repeat up to sign and scale, so many pairs share
	// one correlation value exactly and the argmax, victim and tie-break
	// choices hinge on visit order.
	tied := func(seed int64) *mat.Matrix {
		r := rand.New(rand.NewSource(seed))
		psi := mat.New(54, 3)
		for i := range psi.Data() {
			psi.Data()[i] = float64(r.Intn(5) - 2)
		}
		return psi
	}
	// An orthonormal basis whose later rows repeat or negate earlier ones.
	echoed := func(n, k int, seed int64) *mat.Matrix {
		r := rand.New(rand.NewSource(seed))
		psi := mat.RandomOrthonormal(n, k, r)
		for i := n / 2; i < n; i++ {
			if r.Intn(3) > 0 {
				row := psi.Row(i)
				copy(row, psi.Row(r.Intn(i)))
				if r.Intn(2) == 0 {
					mat.ScaleVec(-1, row)
				}
			}
		}
		return psi
	}
	cases := []struct {
		name string
		psi  *mat.Matrix
		m    int
	}{
		{"fixture", fixPsi, 8},
		{"random-63x4", mat.RandomOrthonormal(63, 4, rng), 6},
		{"random-64x5", mat.RandomOrthonormal(64, 5, rng), 7},
		{"random-65x5", mat.RandomOrthonormal(65, 5, rng), 5},
		{"random-130x6", mat.RandomOrthonormal(130, 6, rng), 9},
		{"random-300x6", mat.RandomOrthonormal(300, 6, rng), 9},
		{"random-901x13", mat.RandomOrthonormal(901, 13, rng), 20},
		{"echoed-200x5", echoed(200, 5, 3), 8},
		{"tied-54x3-a", tied(0), 5},
		{"tied-54x3-b", tied(5), 5},
		{"t1-16x14", trained, 12},
	}
	for _, c := range cases {
		n := c.psi.Rows()
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = i%5 != 2
		}
		for _, masked := range []bool{false, true} {
			in := Input{Psi: c.psi, M: c.m}
			if masked {
				in.Mask = mask
			}
			want, err := refAllocate(refOptions{}, in, false)
			if err != nil {
				t.Fatal(err)
			}
			rescan, err := refAllocate(refOptions{}, in, true)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(rescan) != fmt.Sprint(want) {
				t.Fatalf("%s masked=%v: reference rescan %v, heap %v", c.name, masked, rescan, want)
			}
			for _, ks := range kernelSets {
				for _, slack := range []float64{tieSlack, math.Inf(1)} {
					got, _, err := (&Greedy{}).allocate(in, ks.kern, slack)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s masked=%v kernels=%s slack=%v: sensors %v, reference %v",
							c.name, masked, ks.name, slack, got, want)
					}
				}
			}
		}
	}
}

// TestGreedyTieBreakAggregatesAtPaperScale runs Allocate on the two dies
// the provision benchmark creates (t1 at 60×56 with K 16, manycore-256c at
// 32×32 with K 12, M 24, trained as the daemon trains them) with the
// running aggregates and again with every tie-break on the exact sums:
// the sensors must agree. It logs how many tie-breaks there were and how
// many the aggregates left to the exact sums.
func TestGreedyTieBreakAggregatesAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale training skipped in -short")
	}
	for _, c := range []struct {
		floorplan string
		grid      floorplan.Grid
		t, kmax   int
		k, m      int
	}{
		{"t1", floorplan.Grid{W: 60, H: 56}, 192, 24, 16, 24},
		{"manycore-256c", floorplan.Grid{W: 32, H: 32}, 384, 16, 12, 24},
	} {
		fp, err := floorplan.Named(c.floorplan)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2002} {
			ds, err := dataset.Generate(fp, dataset.GenConfig{
				Grid: c.grid, Snapshots: c.t, Seed: seed, Power: power.ConfigFor(fp, 0.75),
			})
			if err != nil {
				t.Fatal(err)
			}
			b, err := basis.TrainPCA(ds, c.kmax, seed)
			if err != nil {
				t.Fatal(err)
			}
			psi, err := b.PsiK(c.k)
			if err != nil {
				t.Fatal(err)
			}
			in := Input{Psi: psi, M: c.m}
			got, fallbacks, err := (&Greedy{}).allocate(in, matKernels, tieSlack)
			if err != nil {
				t.Fatal(err)
			}
			want, ties, err := (&Greedy{}).allocate(in, matKernels, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s seed %d: sensors %v, exact tie-breaks %v", c.floorplan, seed, got, want)
			}
			t.Logf("%s %dx%d seed %d: %d tie-breaks, %d left to the exact sums", c.floorplan, c.grid.W, c.grid.H, seed, ties, fallbacks)
		}
	}
}
