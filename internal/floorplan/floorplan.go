// Package floorplan models processor floorplans as rectangular functional
// blocks on a die, and rasterizes them onto the discrete thermal grid used by
// the rest of the pipeline.
//
// The package ships the UltraSPARC T1 (Niagara) layout the paper evaluates
// on: eight SPARC cores along the top and bottom die edges, eight L2 cache
// banks inboard of the cores, and the crossbar plus floating-point unit in
// the central band (paper Fig. 1).
package floorplan

import (
	"fmt"
)

// Kind classifies a block's functional role; it drives both the power model
// and sensor-placement constraints (e.g. "no sensors inside caches").
type Kind int

// Block kinds.
const (
	KindCore Kind = iota
	KindCache
	KindCrossbar
	KindFPU
	KindOther
)

// String returns the lowercase kind name.
func (k Kind) String() string {
	switch k {
	case KindCore:
		return "core"
	case KindCache:
		return "cache"
	case KindCrossbar:
		return "crossbar"
	case KindFPU:
		return "fpu"
	case KindOther:
		return "other"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Block is an axis-aligned rectangle in normalized die coordinates:
// X, Y are the left/top corner and W, H the extent, all in [0, 1].
// Y grows downward (row direction), X rightward (column direction).
type Block struct {
	Name       string
	Kind       Kind
	X, Y, W, H float64
}

// Contains reports whether the normalized point (x, y) lies inside b.
func (b Block) Contains(x, y float64) bool {
	return x >= b.X && x < b.X+b.W && y >= b.Y && y < b.Y+b.H
}

// Floorplan is a named set of blocks tiling (or partially covering) the die.
type Floorplan struct {
	Name   string
	Blocks []Block
}

// Validate checks that all blocks lie within the unit die and that no two
// blocks overlap (beyond floating-point tolerance). It returns a descriptive
// error for the first violation found.
func (fp *Floorplan) Validate() error {
	const eps = 1e-9
	for i, b := range fp.Blocks {
		if b.Name == "" {
			return fmt.Errorf("floorplan %q: block %d has no name", fp.Name, i)
		}
		if b.W <= 0 || b.H <= 0 {
			return fmt.Errorf("floorplan %q: block %q has non-positive extent", fp.Name, b.Name)
		}
		if b.X < -eps || b.Y < -eps || b.X+b.W > 1+eps || b.Y+b.H > 1+eps {
			return fmt.Errorf("floorplan %q: block %q exceeds die bounds", fp.Name, b.Name)
		}
	}
	for i := 0; i < len(fp.Blocks); i++ {
		for j := i + 1; j < len(fp.Blocks); j++ {
			if overlaps(fp.Blocks[i], fp.Blocks[j]) {
				return fmt.Errorf("floorplan %q: blocks %q and %q overlap",
					fp.Name, fp.Blocks[i].Name, fp.Blocks[j].Name)
			}
		}
	}
	return nil
}

func overlaps(a, b Block) bool {
	const eps = 1e-9
	return a.X+a.W > b.X+eps && b.X+b.W > a.X+eps &&
		a.Y+a.H > b.Y+eps && b.Y+b.H > a.Y+eps
}

// BlockIndex returns the index of the named block, or -1.
func (fp *Floorplan) BlockIndex(name string) int {
	for i, b := range fp.Blocks {
		if b.Name == name {
			return i
		}
	}
	return -1
}

// KindBlocks returns the indices of all blocks of the given kind, in layout
// order.
func (fp *Floorplan) KindBlocks(k Kind) []int {
	var out []int
	for i, b := range fp.Blocks {
		if b.Kind == k {
			out = append(out, i)
		}
	}
	return out
}

// UltraSparcT1 returns the 8-core Niagara floorplan of the paper's Fig. 1:
// two rows of four cores at the top and bottom die edges, eight L2 cache
// banks inboard, and a central band holding the crossbar and the shared FPU.
// The blocks tile the die exactly.
func UltraSparcT1() *Floorplan {
	fp := &Floorplan{Name: "ultrasparc-t1"}
	const (
		coreH  = 3.0 / 14 // each core band is 3/14 of die height
		cacheH = 3.0 / 14 // each cache band is 3/14
		midH   = 2.0 / 14 // central crossbar/FPU band
	)
	// Top core row.
	for i := 0; i < 4; i++ {
		fp.Blocks = append(fp.Blocks, Block{
			Name: fmt.Sprintf("core%d", i), Kind: KindCore,
			X: float64(i) * 0.25, Y: 0, W: 0.25, H: coreH,
		})
	}
	// Top L2 bank row.
	for i := 0; i < 4; i++ {
		fp.Blocks = append(fp.Blocks, Block{
			Name: fmt.Sprintf("l2b%d", i), Kind: KindCache,
			X: float64(i) * 0.25, Y: coreH, W: 0.25, H: cacheH,
		})
	}
	// Central band: crossbar (left 4/5) + FPU (right 1/5).
	fp.Blocks = append(fp.Blocks,
		Block{Name: "crossbar", Kind: KindCrossbar, X: 0, Y: coreH + cacheH, W: 0.8, H: midH},
		Block{Name: "fpu", Kind: KindFPU, X: 0.8, Y: coreH + cacheH, W: 0.2, H: midH},
	)
	// Bottom L2 bank row.
	for i := 0; i < 4; i++ {
		fp.Blocks = append(fp.Blocks, Block{
			Name: fmt.Sprintf("l2b%d", i+4), Kind: KindCache,
			X: float64(i) * 0.25, Y: coreH + cacheH + midH, W: 0.25, H: cacheH,
		})
	}
	// Bottom core row.
	for i := 0; i < 4; i++ {
		fp.Blocks = append(fp.Blocks, Block{
			Name: fmt.Sprintf("core%d", i+4), Kind: KindCore,
			X: float64(i) * 0.25, Y: coreH + 2*cacheH + midH, W: 0.25, H: coreH,
		})
	}
	return fp
}
