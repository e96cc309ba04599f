package power

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/workload"
)

func t1gen(t *testing.T, preset string, seed int64) (*floorplan.Floorplan, *Generator) {
	t.Helper()
	fp := floorplan.UltraSparcT1()
	return fp, presetGen(t, fp, preset, Config{Seed: seed})
}

// presetGen builds a generator for one of the four registry presets.
func presetGen(t *testing.T, fp *floorplan.Floorplan, preset string, cfg Config) *Generator {
	t.Helper()
	g, err := NewSpecGenerator(fp, workload.Preset(preset), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeneratorDeterministic(t *testing.T) {
	_, g1 := t1gen(t, "web", 7)
	_, g2 := t1gen(t, "web", 7)
	for i := 0; i < 50; i++ {
		p1, p2 := g1.Step(), g2.Step()
		for b := range p1 {
			if p1[b] != p2[b] {
				t.Fatalf("step %d block %d: %v vs %v", i, b, p1[b], p2[b])
			}
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	_, g1 := t1gen(t, "web", 1)
	_, g2 := t1gen(t, "web", 2)
	same := true
	for i := 0; i < 50 && same; i++ {
		p1, p2 := g1.Step(), g2.Step()
		for b := range p1 {
			if p1[b] != p2[b] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestPowersWithinBounds(t *testing.T) {
	fp, g := t1gen(t, "mixed", 3)
	cfg := Config{}
	cfg.defaults()
	for i := 0; i < 1000; i++ {
		p := g.Step()
		if len(p) != len(fp.Blocks) {
			t.Fatalf("power vector length %d, want %d", len(p), len(fp.Blocks))
		}
		for b, w := range p {
			if w < 0 {
				t.Fatalf("negative power %v on block %d", w, b)
			}
			if fp.Blocks[b].Kind == floorplan.KindCore {
				if w < cfg.CoreIdleW-1e-9 || w > cfg.CoreBusyW+1e-9 {
					t.Fatalf("core power %v outside [%v,%v]", w, cfg.CoreIdleW, cfg.CoreBusyW)
				}
			}
		}
	}
}

func TestScenarioActivityOrdering(t *testing.T) {
	// Compute workload must dissipate clearly more than idle workload.
	avg := func(preset string) float64 {
		_, g := t1gen(t, preset, 11)
		var tot float64
		const steps = 2000
		for i := 0; i < steps; i++ {
			tot += TotalPower(g.Step())
		}
		return tot / steps
	}
	idle, web, compute := avg("idle"), avg("web"), avg("compute")
	if !(idle < web && web < compute) {
		t.Fatalf("expected idle < web < compute, got %v < %v < %v", idle, web, compute)
	}
}

func TestComputeScenarioPowerBudget(t *testing.T) {
	// Sustained compute should land in a T1-class envelope (tens of watts).
	_, g := t1gen(t, "compute", 5)
	var tot float64
	const steps = 2000
	for i := 0; i < steps; i++ {
		tot += TotalPower(g.Step())
	}
	avg := tot / steps
	if avg < 30 || avg > 90 {
		t.Fatalf("compute average power %v W, want within [30,90]", avg)
	}
}

func TestTraceVariesOverTime(t *testing.T) {
	_, g := t1gen(t, "web", 13)
	first := g.Step()
	varied := false
	for i := 0; i < 200; i++ {
		p := g.Step()
		for b := range p {
			if math.Abs(p[b]-first[b]) > 0.5 {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("trace never varied — Markov dynamics broken")
	}
}

func TestCoresVaryIndependently(t *testing.T) {
	// Over a long run, per-core powers must not be perfectly correlated;
	// otherwise there is no spatial diversity for PCA to exploit.
	fp, g := t1gen(t, "web", 17)
	cores := fp.KindBlocks(floorplan.KindCore)
	const steps = 1500
	series := make([][]float64, len(cores))
	for i := range series {
		series[i] = make([]float64, steps)
	}
	for s := 0; s < steps; s++ {
		p := g.Step()
		for ci, b := range cores {
			series[ci][s] = p[b]
		}
	}
	corr := correlation(series[0], series[1])
	if corr > 0.9 {
		t.Fatalf("core0/core1 correlation %v — too synchronized", corr)
	}
	varOK := 0
	for _, s := range series {
		if variance(s) > 0.1 {
			varOK++
		}
	}
	if varOK < len(series)/2 {
		t.Fatalf("only %d of %d cores show activity variance", varOK, len(series))
	}
}

func variance(v []float64) float64 {
	var m float64
	for _, x := range v {
		m += x
	}
	m /= float64(len(v))
	var s float64
	for _, x := range v {
		s += (x - m) * (x - m)
	}
	return s / float64(len(v))
}

func correlation(a, b []float64) float64 {
	va, vb := variance(a), variance(b)
	if va == 0 || vb == 0 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	var cov float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
	}
	cov /= float64(len(a))
	return cov / math.Sqrt(va*vb)
}

func TestSpreadToCellsConservesPower(t *testing.T) {
	fp, g := t1gen(t, "web", 19)
	grid := floorplan.Grid{W: 60, H: 56}
	r := fp.Rasterize(grid)
	for i := 0; i < 20; i++ {
		bp := g.Step()
		cp := SpreadToCells(r, bp)
		var tot float64
		for _, w := range cp {
			tot += w
		}
		if math.Abs(tot-TotalPower(bp)) > 1e-9 {
			t.Fatalf("cell power %v != block power %v", tot, TotalPower(bp))
		}
	}
}

func TestSpreadToCellsUniformWithinBlock(t *testing.T) {
	fp, g := t1gen(t, "compute", 23)
	grid := floorplan.Grid{W: 30, H: 28}
	r := fp.Rasterize(grid)
	bp := g.Step()
	cp := SpreadToCells(r, bp)
	for b := range fp.Blocks {
		cells := r.CellsOf(b)
		if len(cells) == 0 {
			continue
		}
		want := bp[b] / float64(len(cells))
		for _, i := range cells {
			if math.Abs(cp[i]-want) > 1e-12 {
				t.Fatalf("block %d cell %d: %v, want %v", b, i, cp[i], want)
			}
		}
	}
}

func TestSpreadToCellsLengthMismatchPanics(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	r := fp.Rasterize(floorplan.Grid{W: 10, H: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpreadToCells(r, []float64{1, 2})
}

func TestMigrationMovesLoad(t *testing.T) {
	// With a short migration period, a busy core's task must eventually move.
	fp := floorplan.UltraSparcT1()
	spec := workload.Preset("compute")
	spec.Migration.Period = 5
	g, err := NewSpecGenerator(fp, spec, Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	cores := fp.KindBlocks(floorplan.KindCore)
	argmax := func(p []float64) int {
		best := cores[0]
		for _, b := range cores {
			if p[b] > p[best] {
				best = b
			}
		}
		return best
	}
	seen := make(map[int]bool)
	for i := 0; i < 400; i++ {
		seen[argmax(g.Step())] = true
	}
	if len(seen) < 3 {
		t.Fatalf("hottest core visited only %d distinct cores; migration not working", len(seen))
	}
}

func TestLoadCouplingCorrelatesCores(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	cores := fp.KindBlocks(floorplan.KindCore)
	run := func(coupling float64) float64 {
		g := presetGen(t, fp, "web", Config{Seed: 31, LoadCoupling: coupling})
		const steps = 1500
		a := make([]float64, steps)
		b := make([]float64, steps)
		for s := 0; s < steps; s++ {
			p := g.Step()
			a[s], b[s] = p[cores[0]], p[cores[5]]
		}
		return correlation(a, b)
	}
	weak, strong := run(0), run(0.9)
	if strong <= weak {
		t.Fatalf("coupling 0.9 correlation %v not above coupling 0 (%v)", strong, weak)
	}
	if strong < 0.5 {
		t.Fatalf("strong coupling only reaches correlation %v", strong)
	}
}

func TestLoadCouplingKeepsPowerBounds(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	g := presetGen(t, fp, "mixed", Config{Seed: 37, LoadCoupling: 0.75})
	cfg := Config{}
	cfg.defaults()
	for i := 0; i < 800; i++ {
		for b, w := range g.Step() {
			if fp.Blocks[b].Kind == floorplan.KindCore && (w < cfg.CoreIdleW-1e-9 || w > cfg.CoreBusyW+1e-9) {
				t.Fatalf("core power %v outside bounds under coupling", w)
			}
		}
	}
}

func TestSpreadToCellsIntoMatchesAndZeroAlloc(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	r := fp.Rasterize(floorplan.Grid{W: 16, H: 14})
	bp := make([]float64, len(fp.Blocks))
	for i := range bp {
		bp[i] = float64(i) * 0.3
	}
	want := SpreadToCells(r, bp)
	dst := make([]float64, r.Grid.N())
	for i := range dst {
		dst[i] = 99 // must be overwritten, including uncovered cells
	}
	SpreadToCellsInto(dst, r, bp)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("cell %d: %v != %v", i, dst[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { SpreadToCellsInto(dst, r, bp) }); allocs != 0 {
		t.Fatalf("SpreadToCellsInto allocated %v times per run", allocs)
	}
}

func TestSpreadToCellsIntoBadDstPanics(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	r := fp.Rasterize(floorplan.Grid{W: 8, H: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpreadToCellsInto(make([]float64, 3), r, make([]float64, len(fp.Blocks)))
}

// --- spec-driven generator path ---

func stepTrace(g *Generator, steps int) [][]float64 {
	out := make([][]float64, steps)
	for i := range out {
		out[i] = g.Step()
	}
	return out
}

func tracesEqual(a, b [][]float64) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestSpecSeedDeterminism pins bit-reproducibility for every catalog spec —
// together they exercise the MMPP arrival draw, the migration-chain draw,
// the DVFS governor and the envelope paths.
func TestSpecSeedDeterminism(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	for _, name := range workload.Names() {
		mk := func(seed int64) *Generator {
			spec, err := workload.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewSpecGenerator(fp, spec, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		if !tracesEqual(stepTrace(mk(9), 400), stepTrace(mk(9), 400)) {
			t.Fatalf("spec %q: same seed produced different traces", name)
		}
		if tracesEqual(stepTrace(mk(9), 400), stepTrace(mk(10), 400)) {
			t.Fatalf("spec %q: different seeds produced identical traces", name)
		}
	}
}

// TestScenarioStatisticalEnvelopes pins each catalog scenario's mean and
// peak total power on the T1 so the spec migration (or a later edit to the
// registry) cannot silently change a preset's thermal regime. Bounds carry
// generous margins around values measured over several seeds; the peak cap
// is the floorplan's physical budget (all cores busy, everything active).
func TestScenarioStatisticalEnvelopes(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	envelopes := map[string][2]float64{ // name -> [meanLo, meanHi] watts
		"web":     {40, 56},
		"compute": {60, 82},
		"mixed":   {52, 70},
		"idle":    {14, 32},
		"bursty":  {38, 56},
		"dvfs":    {58, 80},
		"thrash":  {40, 58},
		"wave":    {40, 58},
	}
	const steps = 3000
	const peakCap = 82 // 8 cores x 6.5 + caches + crossbar + fpu ≈ 81.4 W
	for _, name := range workload.Names() {
		bounds, ok := envelopes[name]
		if !ok {
			t.Fatalf("scenario %q has no pinned statistical envelope; add one", name)
		}
		for _, seed := range []int64{3, 11} {
			spec, _ := workload.Parse(name)
			g, err := NewSpecGenerator(fp, spec, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var sum, peak float64
			for i := 0; i < steps; i++ {
				tot := TotalPower(g.Step())
				sum += tot
				if tot > peak {
					peak = tot
				}
			}
			mean := sum / steps
			if mean < bounds[0] || mean > bounds[1] {
				t.Errorf("%s seed %d: mean power %.2f W outside pinned [%v, %v]",
					name, seed, mean, bounds[0], bounds[1])
			}
			if peak > peakCap || peak < mean {
				t.Errorf("%s seed %d: peak power %.2f W outside (mean, %v]", name, seed, peak, peakCap)
			}
		}
	}
}

func TestArrivalBurstsRaiseActivity(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	mean := func(s *workload.Spec) float64 {
		g, err := NewSpecGenerator(fp, s, Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const steps = 3000
		for i := 0; i < steps; i++ {
			sum += TotalPower(g.Step())
		}
		return sum / steps
	}
	with, _ := workload.Parse("bursty")
	without := with.Clone()
	without.Arrival = nil
	mw, mo := mean(with), mean(without)
	if mw < mo+1 {
		t.Fatalf("MMPP bursts raised mean power only from %.2f to %.2f W; expected a clear increase", mo, mw)
	}
}

func TestDVFSThrottlesPower(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	base, _ := workload.Parse("compute")
	throttled := base.Clone()
	// A one-level ladder pins every core at 60% frequency: dynamic power
	// scales by 0.6³ regardless of the governor thresholds.
	throttled.DVFS = &workload.DVFS{Levels: []float64{0.6}, UpAt: 0.9, DownAt: 0.1}
	mean := func(s *workload.Spec) float64 {
		g, err := NewSpecGenerator(fp, s, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const steps = 2000
		for i := 0; i < steps; i++ {
			sum += TotalPower(g.Step())
		}
		return sum / steps
	}
	mb, mt := mean(base), mean(throttled)
	if mt >= mb-5 {
		t.Fatalf("0.6x DVFS ladder barely moved mean power: %.2f vs %.2f W", mt, mb)
	}
}

func TestEnvelopeScalesDuty(t *testing.T) {
	fp := floorplan.UltraSparcT1()
	base, _ := workload.Parse("compute")
	damped := base.Clone()
	// Min == Max gives a constant multiplier — deterministic scaling.
	damped.Envelopes = []workload.Envelope{{Kind: "core", Period: 10, Min: 0.3, Max: 0.3}}
	mean := func(s *workload.Spec) float64 {
		g, err := NewSpecGenerator(fp, s, Config{Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const steps = 1500
		for i := 0; i < steps; i++ {
			sum += TotalPower(g.Step())
		}
		return sum / steps
	}
	mb, md := mean(base), mean(damped)
	if md >= mb-10 {
		t.Fatalf("0.3x core duty envelope barely moved mean power: %.2f vs %.2f W", md, mb)
	}
	// Core powers must stay within budget bounds under any envelope.
	g, _ := NewSpecGenerator(fp, damped, Config{Seed: 13})
	cfg := Config{}
	cfg.defaults()
	for i := 0; i < 500; i++ {
		for b, w := range g.Step() {
			if fp.Blocks[b].Kind == floorplan.KindCore && (w < cfg.CoreIdleW-1e-9 || w > cfg.CoreBusyW+1e-9) {
				t.Fatalf("core power %v outside budget under envelope", w)
			}
		}
	}
}

func TestMigrationChainMovesLoad(t *testing.T) {
	// A pure migration Markov chain (no periodic rebalancing) must still
	// move the hottest task across the die.
	fp := floorplan.UltraSparcT1()
	spec, _ := workload.Parse("compute")
	spec.Migration = workload.Migration{Period: -1, Rate: 0.3}
	g, err := NewSpecGenerator(fp, spec, Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	cores := fp.KindBlocks(floorplan.KindCore)
	seen := make(map[int]bool)
	for i := 0; i < 400; i++ {
		p := g.Step()
		best := cores[0]
		for _, b := range cores {
			if p[b] > p[best] {
				best = b
			}
		}
		seen[best] = true
	}
	if len(seen) < 3 {
		t.Fatalf("hottest core visited only %d distinct cores under the migration chain", len(seen))
	}
}

func TestSpecLoadCouplingCorrelatesCores(t *testing.T) {
	// LoadCoupling declared in the spec (not the Config) must correlate the
	// cores the same way Config.LoadCoupling does.
	fp := floorplan.UltraSparcT1()
	cores := fp.KindBlocks(floorplan.KindCore)
	run := func(cpl float64) float64 {
		spec, _ := workload.Parse("web")
		spec.LoadCoupling = cpl
		g, err := NewSpecGenerator(fp, spec, Config{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		const steps = 1500
		a := make([]float64, steps)
		b := make([]float64, steps)
		for s := 0; s < steps; s++ {
			p := g.Step()
			a[s], b[s] = p[cores[0]], p[cores[5]]
		}
		return correlation(a, b)
	}
	weak, strong := run(0), run(0.9)
	if strong <= weak || strong < 0.5 {
		t.Fatalf("spec-level coupling 0.9 correlation %v vs %v at 0", strong, weak)
	}
}

func TestSpecGeneratorRejectsInvalidSpec(t *testing.T) {
	_, err := NewSpecGenerator(floorplan.UltraSparcT1(), &workload.Spec{Name: "empty"}, Config{})
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSpecGeneratorIsolatedFromCallerSpec(t *testing.T) {
	// The generator must clone the spec: mutating the caller's copy after
	// construction cannot change the trace.
	fp := floorplan.UltraSparcT1()
	spec, _ := workload.Parse("web")
	g1, _ := NewSpecGenerator(fp, spec, Config{Seed: 17})
	spec.Phases[0].Rates = workload.Rates{IdleToBusy: 1, FPUToBusy: 1}
	spec2, _ := workload.Parse("web")
	g2, _ := NewSpecGenerator(fp, spec2, Config{Seed: 17})
	if !tracesEqual(stepTrace(g1, 200), stepTrace(g2, 200)) {
		t.Fatal("mutating the caller's spec changed a running generator")
	}
}

func TestManycoreConfigScalesBudgets(t *testing.T) {
	t1 := ManycoreConfig(8, 8)
	var def Config
	def.defaults()
	if t1 != def {
		t.Fatalf("ManycoreConfig(8,8) = %+v, want the T1 defaults %+v", t1, def)
	}
	big := ManycoreConfig(256, 64)
	if big.CoreBusyW*256 > def.CoreBusyW*8*1.001 || big.CacheActiveW*64 > def.CacheActiveW*8*1.001 {
		t.Fatalf("scaled budgets exceed the T1-class die envelope: %+v", big)
	}
	if zero := ManycoreConfig(0, 0); zero != def {
		t.Fatalf("ManycoreConfig(0,0) should fall back to defaults, got %+v", zero)
	}
}

func TestSpecCouplingWinsOverConfigDefault(t *testing.T) {
	// load_coupling declared in the spec is part of the scenario and must
	// not be silently overridden by the caller-side Config default.
	fp := floorplan.UltraSparcT1()
	cores := fp.KindBlocks(floorplan.KindCore)
	corr := func(specCpl, cfgCpl float64) float64 {
		spec, _ := workload.Parse("web")
		spec.LoadCoupling = specCpl
		g, err := NewSpecGenerator(fp, spec, Config{Seed: 41, LoadCoupling: cfgCpl})
		if err != nil {
			t.Fatal(err)
		}
		const steps = 1500
		a := make([]float64, steps)
		b := make([]float64, steps)
		for s := 0; s < steps; s++ {
			p := g.Step()
			a[s], b[s] = p[cores[0]], p[cores[5]]
		}
		return correlation(a, b)
	}
	if got := corr(0.9, 0.1); got < 0.5 {
		t.Fatalf("spec coupling 0.9 under config 0.1 only reaches correlation %v; the spec must win", got)
	}
	if got := corr(0, 0.9); got < 0.5 {
		t.Fatalf("config coupling 0.9 as default only reaches correlation %v", got)
	}
}

func TestEnvelopeOverdriveStaysWithinBudgets(t *testing.T) {
	// Envelopes with Max > 1 cannot push activity-coupled blocks past
	// their Base + Active budgets: modulated activity is clamped to [0,1].
	fp := floorplan.UltraSparcT1()
	spec, _ := workload.Parse("compute")
	spec.Envelopes = []workload.Envelope{
		{Kind: "cache", Period: 10, Min: 5, Max: 5},
		{Kind: "crossbar", Period: 10, Min: 5, Max: 5},
		{Kind: "fpu", Period: 10, Min: 5, Max: 5},
	}
	g, err := NewSpecGenerator(fp, spec, Config{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.defaults()
	for i := 0; i < 500; i++ {
		for b, w := range g.Step() {
			var cap float64
			switch fp.Blocks[b].Kind {
			case floorplan.KindCache:
				cap = cfg.CacheBaseW + cfg.CacheActiveW
			case floorplan.KindCrossbar:
				cap = cfg.CrossbarBaseW + cfg.CrossbarActiveW
			case floorplan.KindFPU:
				cap = cfg.FPUBaseW + cfg.FPUActiveW
			default:
				continue
			}
			if w > cap+1e-9 {
				t.Fatalf("block %d (%v) power %v exceeds budget %v under a 5x envelope",
					b, fp.Blocks[b].Kind, w, cap)
			}
		}
	}
}

func TestConfigForScalesByFloorplan(t *testing.T) {
	t1 := ConfigFor(floorplan.UltraSparcT1(), 0.75)
	if t1.LoadCoupling != 0.75 || t1.CoreBusyW != 0 {
		t.Fatalf("T1 ConfigFor = %+v; want zero budgets (defaults) + coupling", t1)
	}
	fp, err := floorplan.Manycore(64, 16, floorplan.Grid{W: 8, H: 8})
	if err != nil {
		t.Fatal(err)
	}
	mc := ConfigFor(fp, 0.5)
	want := ManycoreConfig(64, 16)
	want.LoadCoupling = 0.5
	if mc != want {
		t.Fatalf("manycore ConfigFor = %+v, want %+v", mc, want)
	}
}
