package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scanMax is the scan MaxSets.MaxInto is defined by.
func scanMax(x []float64, set []int) float64 {
	if len(set) == 0 {
		return 0
	}
	t := x[set[0]]
	for _, c := range set[1:] {
		if v := x[c]; v > t {
			t = v
		}
	}
	return t
}

// MaxInto equals the scan set by set, by bits, on both paths: sets of
// unequal length (padding), empty sets, set counts straddling the 4-lane
// group, and vectors mixing ±0 ties, NaN and ±Inf.
func TestMaxSetsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	negZero := math.Copysign(0, -1)
	pool := []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 5e-324}
	for _, nsets := range []int{0, 1, 3, 4, 5, 8, 9, 13} {
		for trial := 0; trial < 20; trial++ {
			x := make([]float64, 64)
			for i := range x {
				if rng.Intn(3) == 0 {
					x[i] = pool[rng.Intn(len(pool))]
				} else {
					x[i] = rng.NormFloat64()
				}
			}
			sets := make([][]int, nsets)
			for i := range sets {
				sets[i] = make([]int, rng.Intn(9))
				for p := range sets[i] {
					sets[i][p] = rng.Intn(len(x))
				}
			}
			ms, err := NewMaxSets(sets)
			if err != nil {
				t.Fatal(err)
			}
			for _, avx := range []bool{false, hasAVX} {
				got := make([]float64, nsets)
				ms.maxInto(got, x, avx)
				for i, set := range sets {
					if want := scanMax(x, set); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("%s: set %d %v: %v (%#x), scan %v (%#x)", fmt.Sprintf("sets=%d avx=%v", nsets, avx),
							i, set, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
	if _, err := NewMaxSets([][]int{{1, -2}}); err == nil {
		t.Fatal("a negative index was accepted")
	}
}
