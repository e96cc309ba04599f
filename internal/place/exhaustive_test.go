package place

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
)

// Exhaustive finds the condition-number-optimal sensor set by enumerating
// every M-subset of the allowed cells — the paper's "computationally
// impossible" reference, feasible only for tiny instances and used to
// certify the greedy algorithm's near-optimality.
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
