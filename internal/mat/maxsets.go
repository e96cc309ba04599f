package mat

import (
	"fmt"
	"math"
)

// MaxSets is a fixed family of index sets over a vector — a floorplan's
// cores as lists of map cells — laid out so that MaxInto finds every
// set's maximum in one gathered pass: four sets to a group, one set per
// vector lane, positions of the group's sets interleaved.
type MaxSets struct {
	n      int // number of sets
	length int // positions per set, the longest set's length (at least 1)
	bound  int // largest index + 1 (at least 1), the shortest vector MaxInto reads
	// idx[(g·length+p)·4+k] is position p of set 4g+k. A set shorter
	// than length, an empty set and a padding lane repeat the set's first
	// index (0 when empty), which leaves its maximum unchanged.
	idx   []int32
	empty []int // sets with no index, whose maximum reads 0
}

// NewMaxSets lays out sets for MaxInto. Every index must lie in
// [0, 2³¹).
func NewMaxSets(sets [][]int) (*MaxSets, error) {
	ms := &MaxSets{n: len(sets), length: 1, bound: 1}
	for i, s := range sets {
		if len(s) == 0 {
			ms.empty = append(ms.empty, i)
		}
		ms.length = max(ms.length, len(s))
		for _, c := range s {
			if c < 0 || c > math.MaxInt32 {
				return nil, fmt.Errorf("mat: set %d has index %d outside [0, 2^31)", i, c)
			}
			ms.bound = max(ms.bound, c+1)
		}
	}
	groups := (len(sets) + 3) / 4
	ms.idx = make([]int32, groups*ms.length*4)
	for j := 0; j < 4*groups; j++ {
		var s []int
		if j < len(sets) {
			s = sets[j]
		}
		first := 0
		if len(s) > 0 {
			first = s[0]
		}
		g, k := j/4, j%4
		for p := 0; p < ms.length; p++ {
			c := first
			if p < len(s) {
				c = s[p]
			}
			ms.idx[(g*ms.length+p)*4+k] = int32(c)
		}
	}
	return ms, nil
}

// Len returns the number of sets.
func (ms *MaxSets) Len() int { return ms.n }

// MaxInto writes set i's maximum over x to dst[i] for every set: the value
// the scan "t = x[s[0]]; then for each later index, if x[c] > t { t = x[c] }"
// finds, so among equal values (±0) the first wins and a NaN counts only as
// a set's first element. An empty set's maximum is 0. dst must have length
// Len(), and x must reach every index.
//
// On amd64 with AVX the whole groups of four sets run through a vector
// kernel (maxsets_amd64.s): VMAXPD(v, t) is the scan's "v > t ? v : t"
// exactly, ±0 ties and NaN included, so every platform returns the same
// bits.
func (ms *MaxSets) MaxInto(dst, x []float64) { ms.maxInto(dst, x, hasAVX) }

func (ms *MaxSets) maxInto(dst, x []float64, avx bool) {
	if len(dst) != ms.n || len(x) < ms.bound {
		panic(ErrShape)
	}
	full := 0
	if avx && ms.n >= 4 {
		full = ms.n / 4
		maxSets4AVX(&dst[0], &x[0], &ms.idx[0], full, ms.length)
	}
	for j := 4 * full; j < ms.n; j++ {
		g, k := j/4, j%4
		pos := ms.idx[g*ms.length*4+k : (g+1)*ms.length*4 : (g+1)*ms.length*4]
		t := x[pos[0]]
		for p := 4; p < len(pos); p += 4 {
			if v := x[pos[p]]; v > t {
				t = v
			}
		}
		dst[j] = t
	}
	for _, j := range ms.empty {
		dst[j] = 0
	}
}
