// Package place implements sensor-allocation algorithms: the paper's greedy
// correlation-elimination (Algorithm 1), the energy-center heuristic of the
// k-LSE paper [12] it is compared against, and random/uniform/exhaustive
// references used in tests and ablations.
package place

import (
	"errors"
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/mat"
)

// Input bundles everything an allocator may need. Individual allocators use
// different subsets of the fields.
type Input struct {
	// Psi is the N×K subspace basis Ψ_K (greedy, exhaustive).
	Psi *mat.Matrix
	// Energy is the per-cell mean squared (centered) temperature over the
	// training set — the "thermal energy map" of [12] (energy-center).
	Energy []float64
	// Grid locates cells geometrically (energy-center, uniform).
	Grid floorplan.Grid
	// M is the number of sensors to place.
	M int
	// Mask, if non-nil, restricts placement to cells with Mask[i] == true
	// (the paper's Fig. 6 design constraints).
	Mask []bool
}

// Allocator is a sensor-placement strategy.
type Allocator interface {
	// Name identifies the strategy in reports.
	Name() string
	// Allocate returns M distinct cell indices (sorted ascending).
	Allocate(in Input) ([]int, error)
}

// Parse maps a strategy name to its allocator: "" and "greedy" (the
// paper's Algorithm 1), "energy", "random" (seeded by seed), "uniform" and
// "d-optimal". Unknown names are an error; callers wrap it in their own
// error surface.
func Parse(name string, seed int64) (Allocator, error) {
	switch name {
	case "", "greedy":
		return &Greedy{}, nil
	case "energy":
		return &EnergyCenter{}, nil
	case "random":
		return &Random{Seed: seed}, nil
	case "uniform":
		return &Uniform{}, nil
	case "d-optimal":
		return &DOptimal{}, nil
	}
	return nil, fmt.Errorf("place: unknown strategy %q (want greedy, energy, random, uniform or d-optimal)", name)
}

// Errors shared by allocators.
var (
	ErrTooFewCells = errors.New("place: fewer allowed cells than sensors")
	ErrBadInput    = errors.New("place: invalid input")
)

// allowedCells lists the cell indices permitted by the mask (all cells when
// the mask is nil).
func allowedCells(n int, mask []bool) ([]int, error) {
	if mask == nil {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	if len(mask) != n {
		return nil, fmt.Errorf("%w: mask length %d for %d cells", ErrBadInput, len(mask), n)
	}
	var out []int
	for i, ok := range mask {
		if ok {
			out = append(out, i)
		}
	}
	return out, nil
}

func validateCount(m, available int) error {
	if m < 1 {
		return fmt.Errorf("%w: M=%d", ErrBadInput, m)
	}
	if available < m {
		return fmt.Errorf("%w: %d allowed cells for M=%d", ErrTooFewCells, available, m)
	}
	return nil
}
