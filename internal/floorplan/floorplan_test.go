package floorplan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUltraSparcT1Valid(t *testing.T) {
	fp := UltraSparcT1()
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUltraSparcT1Composition(t *testing.T) {
	fp := UltraSparcT1()
	if got := len(fp.KindBlocks(KindCore)); got != 8 {
		t.Fatalf("cores = %d, want 8", got)
	}
	if got := len(fp.KindBlocks(KindCache)); got != 8 {
		t.Fatalf("cache banks = %d, want 8", got)
	}
	if got := len(fp.KindBlocks(KindCrossbar)); got != 1 {
		t.Fatalf("crossbars = %d, want 1", got)
	}
	if got := len(fp.KindBlocks(KindFPU)); got != 1 {
		t.Fatalf("FPUs = %d, want 1", got)
	}
}

func TestUltraSparcT1TilesDie(t *testing.T) {
	fp := UltraSparcT1()
	if cov := fp.CoverageFraction(); math.Abs(cov-1) > 1e-9 {
		t.Fatalf("coverage = %v, want 1", cov)
	}
}

func TestValidateRejectsOverlap(t *testing.T) {
	fp := &Floorplan{Name: "bad", Blocks: []Block{
		{Name: "a", X: 0, Y: 0, W: 0.6, H: 0.6},
		{Name: "b", X: 0.5, Y: 0.5, W: 0.5, H: 0.5},
	}}
	if err := fp.Validate(); err == nil {
		t.Fatal("expected overlap error")
	}
}

func TestValidateRejectsOutOfBounds(t *testing.T) {
	fp := &Floorplan{Name: "bad", Blocks: []Block{
		{Name: "a", X: 0.5, Y: 0, W: 0.6, H: 0.5},
	}}
	if err := fp.Validate(); err == nil {
		t.Fatal("expected bounds error")
	}
}

func TestValidateRejectsEmptyName(t *testing.T) {
	fp := &Floorplan{Name: "bad", Blocks: []Block{{X: 0, Y: 0, W: 0.5, H: 0.5}}}
	if err := fp.Validate(); err == nil {
		t.Fatal("expected name error")
	}
}

func TestValidateRejectsNonPositiveExtent(t *testing.T) {
	fp := &Floorplan{Name: "bad", Blocks: []Block{{Name: "a", X: 0, Y: 0, W: 0, H: 0.5}}}
	if err := fp.Validate(); err == nil {
		t.Fatal("expected extent error")
	}
}

func TestAdjacentBlocksDoNotOverlap(t *testing.T) {
	a := Block{Name: "a", X: 0, Y: 0, W: 0.5, H: 1}
	b := Block{Name: "b", X: 0.5, Y: 0, W: 0.5, H: 1}
	if overlaps(a, b) {
		t.Fatal("edge-sharing blocks misreported as overlapping")
	}
}

func TestBlockIndex(t *testing.T) {
	fp := UltraSparcT1()
	if fp.BlockIndex("fpu") < 0 {
		t.Fatal("fpu not found")
	}
	if fp.BlockIndex("nope") != -1 {
		t.Fatal("missing block should be -1")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCore: "core", KindCache: "cache", KindCrossbar: "crossbar",
		KindFPU: "fpu", KindOther: "other", Kind(42): "Kind(42)",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := Grid{W: 7, H: 5}
	seen := make(map[int]bool)
	for row := 0; row < g.H; row++ {
		for col := 0; col < g.W; col++ {
			i := g.Index(row, col)
			if i < 0 || i >= g.N() {
				t.Fatalf("index out of range: %d", i)
			}
			if seen[i] {
				t.Fatalf("duplicate index %d", i)
			}
			seen[i] = true
			r2, c2 := g.RowCol(i)
			if r2 != row || c2 != col {
				t.Fatalf("RowCol(Index(%d,%d)) = (%d,%d)", row, col, r2, c2)
			}
		}
	}
	if len(seen) != g.N() {
		t.Fatalf("indices cover %d cells, want %d", len(seen), g.N())
	}
}

func TestGridColumnStacking(t *testing.T) {
	// Paper convention: x[col·H + row].
	g := Grid{W: 60, H: 56}
	if g.Index(0, 0) != 0 || g.Index(1, 0) != 1 || g.Index(0, 1) != 56 {
		t.Fatal("column-stacking convention violated")
	}
	if g.N() != 3360 {
		t.Fatalf("N = %d, want 3360", g.N())
	}
}

func TestGridPanicsOutOfRange(t *testing.T) {
	g := Grid{W: 3, H: 3}
	for _, fn := range []func(){
		func() { g.Index(3, 0) },
		func() { g.Index(0, -1) },
		func() { g.RowCol(9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRasterizeCoversEveryCell(t *testing.T) {
	fp := UltraSparcT1()
	g := Grid{W: 60, H: 56}
	r := fp.Rasterize(g)
	for i, b := range r.BlockOf {
		if b < 0 {
			row, col := g.RowCol(i)
			t.Fatalf("cell (%d,%d) uncovered", row, col)
		}
	}
	if r.CoveredCells() != g.N() {
		t.Fatalf("covered %d of %d", r.CoveredCells(), g.N())
	}
}

func TestRasterizeCellCountsMatchAreas(t *testing.T) {
	fp := UltraSparcT1()
	g := Grid{W: 60, H: 56}
	r := fp.Rasterize(g)
	for b, blk := range fp.Blocks {
		got := float64(r.CellCount(b)) / float64(g.N())
		if math.Abs(got-blk.Area()) > 0.02 {
			t.Fatalf("block %s: cell fraction %v vs area %v", blk.Name, got, blk.Area())
		}
	}
}

func TestRasterizeConsistentAssignment(t *testing.T) {
	fp := UltraSparcT1()
	g := Grid{W: 24, H: 28}
	r := fp.Rasterize(g)
	for b := range fp.Blocks {
		for _, i := range r.CellsOf(b) {
			if r.BlockOf[i] != b {
				t.Fatalf("cell %d listed under block %d but assigned to %d", i, b, r.BlockOf[i])
			}
		}
	}
}

func TestMaskExcludingKinds(t *testing.T) {
	fp := UltraSparcT1()
	g := Grid{W: 60, H: 56}
	r := fp.Rasterize(g)
	mask := r.MaskExcludingKinds(KindCache)
	allowed, denied := 0, 0
	for i, ok := range mask {
		b := r.BlockOf[i]
		isCache := fp.Blocks[b].Kind == KindCache
		if ok && isCache {
			t.Fatal("cache cell allowed by mask")
		}
		if ok {
			allowed++
		} else {
			denied++
		}
		if !ok && !isCache {
			t.Fatal("non-cache cell denied")
		}
	}
	if allowed == 0 || denied == 0 {
		t.Fatalf("degenerate mask: %d allowed, %d denied", allowed, denied)
	}
}

// Property: rasterization at random grid sizes assigns every cell of the T1
// plan exactly once.
func TestRasterizePartitionProperty(t *testing.T) {
	fp := UltraSparcT1()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Grid{W: 4 + r.Intn(80), H: 4 + r.Intn(80)}
		ras := fp.Rasterize(g)
		count := 0
		for b := range fp.Blocks {
			count += ras.CellCount(b)
		}
		return count == g.N() && ras.CoveredCells() == g.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(50))}); err != nil {
		t.Fatal(err)
	}
}

func TestAthlonDualCoreValid(t *testing.T) {
	fp := AthlonDualCore()
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(fp.KindBlocks(KindCore)); got != 2 {
		t.Fatalf("cores = %d, want 2", got)
	}
	if got := len(fp.KindBlocks(KindCache)); got != 2 {
		t.Fatalf("caches = %d, want 2", got)
	}
	if cov := fp.CoverageFraction(); math.Abs(cov-1) > 1e-9 {
		t.Fatalf("coverage = %v, want 1", cov)
	}
	r := fp.Rasterize(Grid{W: 30, H: 28})
	if r.CoveredCells() != 30*28 {
		t.Fatalf("raster covers %d of %d", r.CoveredCells(), 30*28)
	}
}

// TestBlockMapShape: the raster's block map (BlockOf, one entry per cell)
// puts core0 at the die's top-left cell and core7 at its bottom-right.
func TestBlockMapShape(t *testing.T) {
	fp := UltraSparcT1()
	g := Grid{W: 10, H: 8}
	r := fp.Rasterize(g)
	if len(r.BlockOf) != g.N() {
		t.Fatalf("block map has %d cells, want %d", len(r.BlockOf), g.N())
	}
	if name := fp.Blocks[r.BlockOf[g.Index(0, 0)]].Name; name != "core0" {
		t.Fatalf("top-left is %s, want core0", name)
	}
	if name := fp.Blocks[r.BlockOf[g.Index(7, 9)]].Name; name != "core7" {
		t.Fatalf("bottom-right is %s, want core7", name)
	}
}
