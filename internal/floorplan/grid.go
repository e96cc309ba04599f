package floorplan

import "fmt"

// Grid describes the discretization of the die into H rows × W columns of
// equal cells. Following the paper (Sec. 3), a thermal map t[row, col] is
// vectorized by stacking columns: x[col·H + row] = t[row, col], so N = W·H.
//
// (The paper's printed index formula contains a typo — ⌊i/W⌋ with column
// stacking is dimensionally inconsistent; column stacking requires ⌊i/H⌋,
// which is what we implement.)
type Grid struct {
	W, H int
}

// N returns the number of cells.
func (g Grid) N() int { return g.W * g.H }

// Index returns the vector index of cell (row, col).
func (g Grid) Index(row, col int) int {
	if row < 0 || row >= g.H || col < 0 || col >= g.W {
		panic(fmt.Sprintf("floorplan: cell (%d,%d) outside %dx%d grid", row, col, g.H, g.W))
	}
	return col*g.H + row
}

// RowCol inverts Index.
func (g Grid) RowCol(i int) (row, col int) {
	if i < 0 || i >= g.N() {
		panic(fmt.Sprintf("floorplan: index %d outside grid of %d cells", i, g.N()))
	}
	return i % g.H, i / g.H
}

// CellCenter returns the normalized die coordinates (x, y) of the cell
// center, matching Block coordinates.
func (g Grid) CellCenter(row, col int) (x, y float64) {
	return (float64(col) + 0.5) / float64(g.W), (float64(row) + 0.5) / float64(g.H)
}

// Raster maps every grid cell to the floorplan block covering its center.
type Raster struct {
	Grid    Grid
	Plan    *Floorplan
	BlockOf []int   // per cell index: block index, or -1 if uncovered
	cells   [][]int // per block: covered cell indices
}

// Rasterize assigns each cell of g to the block containing its center.
func (fp *Floorplan) Rasterize(g Grid) *Raster {
	r := &Raster{
		Grid:    g,
		Plan:    fp,
		BlockOf: make([]int, g.N()),
		cells:   make([][]int, len(fp.Blocks)),
	}
	for i := range r.BlockOf {
		r.BlockOf[i] = -1
	}
	for row := 0; row < g.H; row++ {
		for col := 0; col < g.W; col++ {
			x, y := g.CellCenter(row, col)
			idx := g.Index(row, col)
			for b, blk := range fp.Blocks {
				if blk.Contains(x, y) {
					r.BlockOf[idx] = b
					r.cells[b] = append(r.cells[b], idx)
					break
				}
			}
		}
	}
	return r
}

// CellsOf returns the cell indices covered by block b (do not mutate).
func (r *Raster) CellsOf(b int) []int { return r.cells[b] }

// Mask returns a per-cell boolean slice, true where allowed(block) holds.
// Uncovered cells are always false.
func (r *Raster) Mask(allowed func(Block) bool) []bool {
	m := make([]bool, r.Grid.N())
	for i, b := range r.BlockOf {
		if b >= 0 && allowed(r.Plan.Blocks[b]) {
			m[i] = true
		}
	}
	return m
}

// MaskExcludingKinds returns a mask allowing sensors everywhere except over
// blocks of the listed kinds — e.g. the paper's Fig. 6 constraint that
// sensors cannot sit inside the caches.
func (r *Raster) MaskExcludingKinds(kinds ...Kind) []bool {
	deny := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		deny[k] = true
	}
	return r.Mask(func(b Block) bool { return !deny[b.Kind] })
}
