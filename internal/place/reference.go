package place

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mat"
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

// Exhaustive finds the condition-number-optimal sensor set by enumerating
// every M-subset of the allowed cells — the paper's "computationally
// impossible" reference, feasible only for tiny instances and used to
// certify the greedy algorithm's near-optimality in tests.
type Exhaustive struct {
	// Limit aborts if the number of subsets would exceed this bound
	// (default 2,000,000).
	Limit int
}

// Name implements Allocator.
func (e *Exhaustive) Name() string { return "exhaustive" }

// Allocate implements Allocator.
func (e *Exhaustive) Allocate(in Input) ([]int, error) {
	if in.Psi == nil {
		return nil, fmt.Errorf("%w: exhaustive needs Psi", ErrBadInput)
	}
	n, k := in.Psi.Dims()
	cells, err := allowedCells(n, in.Mask)
	if err != nil {
		return nil, err
	}
	if err := validateCount(in.M, len(cells)); err != nil {
		return nil, err
	}
	if in.M < k {
		return nil, fmt.Errorf("%w: M=%d < K=%d", ErrBadInput, in.M, k)
	}
	limit := e.Limit
	if limit <= 0 {
		limit = 2_000_000
	}
	if c := binomial(len(cells), in.M); c < 0 || c > limit {
		return nil, fmt.Errorf("%w: C(%d,%d) exceeds limit %d", ErrBadInput, len(cells), in.M, limit)
	}

	var best []int
	bestCond := math.Inf(1)
	subset := make([]int, in.M)
	var walk func(start, depth int)
	walk = func(start, depth int) {
		if depth == in.M {
			idx := make([]int, in.M)
			for i, c := range subset {
				idx[i] = cells[c]
			}
			cond, err := mat.Cond(in.Psi.SelectRows(idx))
			if err != nil || math.IsInf(cond, 1) {
				return
			}
			if cond < bestCond {
				bestCond = cond
				best = idx
			}
			return
		}
		for c := start; c <= len(cells)-(in.M-depth); c++ {
			subset[depth] = c
			walk(c+1, depth+1)
		}
	}
	walk(0, 0)
	if best == nil {
		return nil, fmt.Errorf("%w: no full-rank subset found", ErrBadInput)
	}
	sort.Ints(best)
	return best, nil
}

// binomial returns C(n, m), or -1 on overflow.
func binomial(n, m int) int {
	if m < 0 || m > n {
		return 0
	}
	if m > n-m {
		m = n - m
	}
	c := 1
	for i := 0; i < m; i++ {
		if c > math.MaxInt/(n-i) {
			return -1
		}
		c = c * (n - i) / (i + 1)
	}
	return c
}
