package dataset

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// tinyConfig keeps Generate fast in tests.
func tinyConfig(snaps int, seed int64) GenConfig {
	return GenConfig{
		Grid:      floorplan.Grid{W: 12, H: 10},
		Snapshots: snaps,
		Seed:      seed,
	}
}

func genTiny(t *testing.T, snaps int, seed int64) *Dataset {
	t.Helper()
	d, err := Generate(floorplan.UltraSparcT1(), tinyConfig(snaps, seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateShapes(t *testing.T) {
	d := genTiny(t, 40, 1)
	if d.T() != 40 || d.N() != 120 {
		t.Fatalf("shape (%d,%d), want (40,120)", d.T(), d.N())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d1 := genTiny(t, 24, 5)
	d2 := genTiny(t, 24, 5)
	if !d1.Maps.Equal(d2.Maps, 0) {
		t.Fatal("same seed produced different datasets")
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	d1 := genTiny(t, 24, 5)
	d2 := genTiny(t, 24, 6)
	if d1.Maps.Equal(d2.Maps, 1e-12) {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestGenerateTemperaturesPlausible(t *testing.T) {
	d := genTiny(t, 60, 2)
	s := d.Stats()
	// With a 45 °C ambient, die temperatures must sit above ambient and
	// below silicon limits.
	if s.MinC < 45-1e-6 {
		t.Fatalf("min %v below ambient", s.MinC)
	}
	if s.MaxC > 150 {
		t.Fatalf("max %v implausibly hot", s.MaxC)
	}
	if s.MaxC-s.MinC < 0.5 {
		t.Fatalf("ensemble range %v too flat for PCA to be meaningful", s.MaxC-s.MinC)
	}
}

func TestGenerateSpatialStructure(t *testing.T) {
	// Core cells must on average run hotter than cache cells: power density
	// in cores is several times higher.
	fp := floorplan.UltraSparcT1()
	cfg := tinyConfig(60, 3)
	cfg.Specs = []*workload.Spec{workload.Preset("compute")}
	d, err := Generate(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := fp.Rasterize(cfg.Grid)
	mean := d.Mean()
	kindMean := func(k floorplan.Kind) float64 {
		var s float64
		var c int
		for _, b := range fp.KindBlocks(k) {
			for _, i := range r.CellsOf(b) {
				s += mean[i]
				c++
			}
		}
		return s / float64(c)
	}
	if core, cache := kindMean(floorplan.KindCore), kindMean(floorplan.KindCache); core <= cache {
		t.Fatalf("core mean %v not hotter than cache mean %v", core, cache)
	}
}

func TestMeanAndCentered(t *testing.T) {
	d := genTiny(t, 30, 4)
	x, mean := d.Centered()
	if len(mean) != d.N() {
		t.Fatalf("mean length %d", len(mean))
	}
	// Column means of centered data must vanish.
	for i := 0; i < x.Cols(); i += 7 {
		var s float64
		for j := 0; j < x.Rows(); j++ {
			s += x.At(j, i)
		}
		if math.Abs(s/float64(x.Rows())) > 1e-10 {
			t.Fatalf("centered column %d has mean %v", i, s/float64(x.Rows()))
		}
	}
	// Centered + mean reproduces the original.
	for j := 0; j < 3; j++ {
		rec := mat.AddVec(x.Row(j), mean)
		orig := d.Map(j)
		for i := range rec {
			if math.Abs(rec[i]-orig[i]) > 1e-12 {
				t.Fatal("centered+mean != original")
			}
		}
	}
}

func TestStatsEmpty(t *testing.T) {
	d := &Dataset{Grid: floorplan.Grid{W: 2, H: 2}, Maps: mat.New(0, 4)}
	s := d.Stats()
	if s.T != 0 {
		t.Fatal("empty stats wrong")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := genTiny(t, 16, 9)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Grid != d.Grid {
		t.Fatalf("grid %v != %v", got.Grid, d.Grid)
	}
	if !got.Maps.Equal(d.Maps, 0) {
		t.Fatal("maps not bit-identical after round trip")
	}
}

func TestSaveLoadFileRoundTrip(t *testing.T) {
	d := genTiny(t, 8, 10)
	path := filepath.Join(t.TempDir(), "maps.emds")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Maps.Equal(d.Maps, 0) {
		t.Fatal("file round trip mismatch")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Fatal("expected magic error")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	d := genTiny(t, 4, 11)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:len(raw)-9])); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestLoadRejectsImplausibleHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	// version 1, then absurd dimensions.
	for _, v := range []uint32{1, 1 << 24, 1 << 24, 1 << 24} {
		b := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
		buf.Write(b)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("expected header sanity error")
	}
}

func TestGenerateRemainderAbsorbed(t *testing.T) {
	// Snapshots not divisible by #scenarios must still produce exactly T maps.
	cfg := tinyConfig(41, 12) // 41 % 4 != 0
	d, err := Generate(floorplan.UltraSparcT1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.T() != 41 {
		t.Fatalf("T = %d, want 41", d.T())
	}
}

func TestGenerateStepsPerSnapshot(t *testing.T) {
	cfg := tinyConfig(10, 13)
	cfg.StepsPerSnapshot = 3
	d, err := Generate(floorplan.UltraSparcT1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.T() != 10 {
		t.Fatalf("T = %d, want 10", d.T())
	}
}

func TestGenerateRejectsInvalidFloorplan(t *testing.T) {
	bad := &floorplan.Floorplan{Name: "bad", Blocks: []floorplan.Block{
		{Name: "a", X: 0, Y: 0, W: 2, H: 1},
	}}
	if _, err := Generate(bad, tinyConfig(4, 1)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestValidateAcceptsGoodDataset(t *testing.T) {
	d := genTiny(t, 6, 14)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNaN(t *testing.T) {
	d := genTiny(t, 6, 15)
	d.Maps.Set(2, 7, math.NaN())
	if err := d.Validate(); err == nil {
		t.Fatal("expected NaN error")
	}
}

func TestValidateRejectsInf(t *testing.T) {
	d := genTiny(t, 6, 16)
	d.Maps.Set(1, 3, math.Inf(1))
	if err := d.Validate(); err == nil {
		t.Fatal("expected Inf error")
	}
}

func TestValidateRejectsGridMismatch(t *testing.T) {
	d := genTiny(t, 6, 17)
	d.Grid = floorplan.Grid{W: 3, H: 3}
	if err := d.Validate(); err == nil {
		t.Fatal("expected grid mismatch error")
	}
}

// generateOneAtATime is the reference for the lock step: every segment
// simulated alone, one Transient.StepInto per step, as generation ran before
// its segments shared a sweep over the factor.
func generateOneAtATime(t *testing.T, fp *floorplan.Floorplan, cfg GenConfig) *mat.Matrix {
	t.Helper()
	cfg.defaults()
	raster := fp.Rasterize(cfg.Grid)
	model := thermal.NewModel(cfg.Grid, cfg.Thermal)
	maps := mat.New(cfg.Snapshots, cfg.Grid.N())
	nseg := len(cfg.Specs)
	scratch := make([]float64, cfg.Grid.N())
	for si := 0; si < nseg; si++ {
		r, err := startSegment(fp, raster, model, &cfg, si)
		if err != nil {
			t.Fatal(err)
		}
		end := (si + 1) * (cfg.Snapshots / nseg)
		if si == nseg-1 {
			end = cfg.Snapshots
		}
		for row := si * (cfg.Snapshots / nseg); row < end; row++ {
			for k := 0; k < cfg.StepsPerSnapshot; k++ {
				power.SpreadToCellsInto(r.cellP, raster, r.gen.Step())
				dst := scratch
				if k == cfg.StepsPerSnapshot-1 {
					dst = maps.Row(row)
				}
				if err := r.tr.StepInto(dst, r.cellP); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return maps
}

func TestGenerateWorkersBitIdentical(t *testing.T) {
	// The parallelism pin: every worker count must produce the bytes of
	// the segments simulated one at a time. One worker steps all four
	// segments (7, 7, 7 and 9 rows) in lock step, two and three workers two
	// each, and four workers one each; the last segment's two extra rows
	// run alone. Generate itself always fans out over all CPUs, so the
	// sweep goes through the unexported entry point. Three segments put an
	// odd vector beside a pair; extra un-recorded steps and leakage (whose
	// power reads each run's own pre-step temperatures) must keep every
	// run's state its own.
	fp := floorplan.UltraSparcT1()
	three := tinyConfig(31, 23)
	three.Specs = []*workload.Spec{workload.Preset("web"), workload.Preset("compute"), workload.Preset("idle")}
	steps := tinyConfig(30, 21)
	steps.StepsPerSnapshot = 2
	leaky := tinyConfig(30, 22)
	leaky.Thermal.Leakage = &thermal.LeakageModel{BaseWPerCell: 0.004, TRefC: 45, TSlopeC: 30}
	cases := []struct {
		name string
		cfg  GenConfig
	}{{"default", tinyConfig(30, 21)}, {"three-segments", three}, {"steps=2", steps}, {"leakage", leaky}}
	for _, c := range cases {
		want := generateOneAtATime(t, fp, c.cfg)
		for _, workers := range []int{0, 1, 2, 3, 4} {
			got, err := generate(fp, c.cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Maps.Equal(want, 0) {
				t.Fatalf("%s: workers=%d produced different bytes than the segments one at a time", c.name, workers)
			}
		}
		got, err := Generate(fp, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Maps.Equal(want, 0) {
			t.Fatalf("%s: Generate produced different bytes than the segments one at a time", c.name)
		}
	}
}

func TestGenerateRejectsTooFewSnapshots(t *testing.T) {
	cfg := tinyConfig(3, 1) // 3 snapshots over 4 default scenarios
	_, err := Generate(floorplan.UltraSparcT1(), cfg)
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig", err)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Option != "Snapshots" {
		t.Fatalf("err = %v, want ConfigError{Option: Snapshots}", err)
	}
}

func TestGenerateRejectsGridSideBelowOne(t *testing.T) {
	// Zero sides select the default grid; a negative side used to panic
	// inside thermal.NewModel.
	for _, g := range []floorplan.Grid{{W: -3, H: -5}, {W: -1, H: 14}, {W: 16, H: -2}} {
		_, err := Generate(floorplan.UltraSparcT1(), GenConfig{Grid: g, Snapshots: 8})
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Option != "Grid" {
			t.Fatalf("grid %dx%d: err = %v, want ConfigError{Option: Grid}", g.W, g.H, err)
		}
	}
}

func TestGenerateRejectsNilAndInvalidSpecs(t *testing.T) {
	cfg := GenConfig{Grid: floorplan.Grid{W: 8, H: 8}, Snapshots: 8,
		Specs: []*workload.Spec{nil}}
	if _, err := Generate(floorplan.UltraSparcT1(), cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("nil spec err = %v", err)
	}
	cfg.Specs = []*workload.Spec{{Name: "empty"}}
	if _, err := Generate(floorplan.UltraSparcT1(), cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("invalid spec err = %v", err)
	}
}

func TestGenerateManycoreWithCatalogSpecs(t *testing.T) {
	// A generated 64-core die driven by catalog specs end to end.
	fp, err := floorplan.Manycore(64, 16, floorplan.Grid{W: 8, H: 8})
	if err != nil {
		t.Fatal(err)
	}
	var specs []*workload.Spec
	for _, name := range []string{"bursty", "dvfs"} {
		s, err := workload.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	ds, err := Generate(fp, GenConfig{
		Grid: floorplan.Grid{W: 16, H: 16}, Snapshots: 24, Seed: 4, Specs: specs,
		Power: power.ManycoreConfig(64, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	st := ds.Stats()
	if st.MeanC < 20 || st.MeanC > 150 {
		t.Fatalf("manycore ensemble mean %v °C implausible", st.MeanC)
	}
}
