package place

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Random places M sensors uniformly at random over the allowed cells —
// the weakest sensible reference.
type Random struct {
	Seed int64
}

// Name implements Allocator.
func (r *Random) Name() string { return "random" }

// Allocate implements Allocator.
func (r *Random) Allocate(in Input) ([]int, error) {
	n := in.Grid.N()
	if n == 0 && in.Psi != nil {
		n = in.Psi.Rows()
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: random needs Grid or Psi", ErrBadInput)
	}
	cells, err := allowedCells(n, in.Mask)
	if err != nil {
		return nil, err
	}
	if err := validateCount(in.M, len(cells)); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.Seed))
	perm := rng.Perm(len(cells))
	out := make([]int, in.M)
	for i := range out {
		out[i] = cells[perm[i]]
	}
	sort.Ints(out)
	return out, nil
}

// Uniform lays sensors on a near-square lattice over the die (the grid-based
// placement of Long et al. [9]), snapping each lattice point to the nearest
// allowed cell.
type Uniform struct{}

// Name implements Allocator.
func (u *Uniform) Name() string { return "uniform" }

// Allocate implements Allocator.
func (u *Uniform) Allocate(in Input) ([]int, error) {
	g := in.Grid
	if g.N() == 0 {
		return nil, fmt.Errorf("%w: uniform needs Grid", ErrBadInput)
	}
	cells, err := allowedCells(g.N(), in.Mask)
	if err != nil {
		return nil, err
	}
	if err := validateCount(in.M, len(cells)); err != nil {
		return nil, err
	}
	// Choose lattice dimensions rows×cols ≥ M as square as possible.
	rows := int(math.Sqrt(float64(in.M)))
	for rows > 1 && in.M%rows != 0 {
		rows--
	}
	cols := (in.M + rows - 1) / rows

	taken := make(map[int]bool, in.M)
	var out []int
	for r := 0; r < rows && len(out) < in.M; r++ {
		for c := 0; c < cols && len(out) < in.M; c++ {
			// Lattice point at the center of its tile.
			pr := (float64(r) + 0.5) / float64(rows) * float64(g.H)
			pc := (float64(c) + 0.5) / float64(cols) * float64(g.W)
			best, bestD := -1, 0.0
			for _, idx := range cells {
				if taken[idx] {
					continue
				}
				rr, cc := g.RowCol(idx)
				dr, dc := float64(rr)+0.5-pr, float64(cc)+0.5-pc
				d := dr*dr + dc*dc
				if best < 0 || d < bestD {
					best, bestD = idx, d
				}
			}
			if best >= 0 {
				taken[best] = true
				out = append(out, best)
			}
		}
	}
	if len(out) != in.M {
		return nil, fmt.Errorf("%w: placed %d of %d", ErrTooFewCells, len(out), in.M)
	}
	sort.Ints(out)
	return out, nil
}
