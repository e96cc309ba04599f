package floorplan

// Coverage accessors the floorplan and raster invariant tests check the
// bundled and generated dies with.

// Area returns the block's fractional area of the die.
func (b Block) Area() float64 { return b.W * b.H }

// CoverageFraction returns the total fractional die area covered by blocks.
func (fp *Floorplan) CoverageFraction() float64 {
	var a float64
	for _, b := range fp.Blocks {
		a += b.Area()
	}
	return a
}

// CellCount returns the number of cells covered by block b.
func (r *Raster) CellCount(b int) int { return len(r.cells[b]) }

// CoveredCells returns the total number of cells assigned to any block.
func (r *Raster) CoveredCells() int {
	n := 0
	for _, c := range r.cells {
		n += len(c)
	}
	return n
}
