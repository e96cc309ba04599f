package mat

import "math"

// summaryLanes is L, the number of interleaved lanes of Summarize's
// blocked pass: cell i goes to lane i mod L.
const summaryLanes = 8

// laneStats is the state of Summarize's blocked pass. Lane k has seen
// cells k, k+L, k+2L, … in index order: sum is their sum from the lane's
// first cell on, hi and lo are the first of them attaining the lane's
// maximum and minimum, and hiAt the index of that maximum (exact as a
// float64, which keeps the vector kernel in one register domain). The
// generic twin may give a lane the extremes of more cells than its own
// (see summaryBlocksGeneric), which reduce to the same results. The field
// order is the vector kernel's store layout.
type laneStats struct {
	hi, lo, sum, hiAt [summaryLanes]float64
}

// Summarize digests a map in one pass: its maximum and minimum, the first
// index attaining the maximum, and its mean. x must not be empty.
//
// hi, lo and hiAt are bitwise those of one left-to-right scan that updates
// the maximum on strict improvement and otherwise the minimum on strict
// improvement (summarizeScalar): each is the value at the first index
// attaining the extreme, so among ±0 ties the sign of the first one wins.
// The mean is a blocked sum: cell i is added to lane i mod L in index
// order, the lanes reduce in the fixed tree
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), and the total is divided by
// len(x). Every cell passes through at most ⌈N/L⌉−1+log₂L additions, so the
// mean is within (⌈N/L⌉+log₂L)·u·Σ|xᵢ|/N of the exact one (u = 2⁻⁵³), where
// the sequential sum allows (N−1)·u·Σ|xᵢ|/N (Higham 1993). A map the
// blocked sum does not find finite (a ±Inf or NaN cell, or an overflow)
// is summarized by the scalar scan instead, so such maps get its results
// exactly; so do maps shorter than L.
//
// On amd64 with AVX the blocked pass runs as a vector kernel
// (summary_amd64.s); the generic twin adds each lane in the same order and
// reduces to the same extremes, so every platform returns the same bits.
func Summarize(x []float64) (hi, lo, mean float64, hiAt int) {
	return summarize(x, hasAVX)
}

func summarize(x []float64, avx bool) (hi, lo, mean float64, hiAt int) {
	n := len(x)
	if n < summaryLanes {
		return summarizeScalar(x)
	}
	var st laneStats
	nb := n &^ (summaryLanes - 1)
	if avx {
		summaryBlocksAVX(&x[0], nb, &st)
	} else {
		summaryBlocksGeneric(x[:nb], &st)
	}
	for i := nb; i < n; i++ {
		st.add(i-nb, x[i], i)
	}
	s := &st.sum
	sum := ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
	if math.IsInf(sum, 0) || math.IsNaN(sum) {
		return summarizeScalar(x)
	}
	// Every cell is finite here, so the maximum reduces by value with the
	// lowest index breaking ties: the first index attaining it. Equal
	// nonzero minima have equal bits; a zero minimum takes its sign from
	// the first zero cell.
	hi, lo = st.hi[0], st.lo[0]
	hiIdx := st.hiAt[0]
	for k := 1; k < summaryLanes; k++ {
		if v := st.hi[k]; v > hi || v == hi && st.hiAt[k] < hiIdx {
			hi, hiIdx = v, st.hiAt[k]
		}
		if v := st.lo[k]; v < lo {
			lo = v
		}
	}
	if lo == 0 {
		for _, v := range x {
			if v == 0 {
				lo = v
				break
			}
		}
	}
	return hi, lo, sum / float64(n), int(hiIdx)
}

// add feeds cell i, of value v, to lane k.
func (st *laneStats) add(k int, v float64, i int) {
	if v > st.hi[k] {
		st.hi[k], st.hiAt[k] = v, float64(i)
	}
	if v < st.lo[k] {
		st.lo[k] = v
	}
	st.sum[k] += v
}

// summaryBlocksGeneric runs the blocked pass over x, whose length is a
// positive multiple of L, with the results the vector kernel's lanes reduce
// to. It takes lanes 0–3 and then lanes 4–7 (summaryHalf): four lanes'
// sums and extremes fit in locals, eight do not.
func summaryBlocksGeneric(x []float64, st *laneStats) {
	summaryHalf(x, 0, st)
	summaryHalf(x, 4, st)
}

// summaryHalf runs lanes k0 … k0+3 of summaryBlocksGeneric. Lane k's sum
// is the vector kernel's: x[k], then x[k+L], x[k+2L], … added in index
// order. The extremes are those of one scan of the four lanes' cells in
// index order, given to each of the four: the maximum at the first index
// attaining it, and the minimum, which the lanes reduce to as well. The
// scan tests four cells for a new extreme before it updates them one by
// one, so the common case is eight compares and no update: a scan that kept
// each lane's extremes and index through branches ran slower than the
// scalar scan.
func summaryHalf(x []float64, k0 int, st *laneStats) {
	s0, s1, s2, s3 := x[k0], x[k0+1], x[k0+2], x[k0+3]
	hi, lo, at := s0, s0, k0
	for j, v := range x[k0+1 : k0+4] {
		if v > hi {
			hi, at = v, k0+1+j
		} else if v < lo {
			lo = v
		}
	}
	for i := k0 + summaryLanes; i < len(x); i += summaryLanes {
		c := x[i : i+4 : i+4]
		v0, v1, v2, v3 := c[0], c[1], c[2], c[3]
		s0 += v0
		s1 += v1
		s2 += v2
		s3 += v3
		if v0 > hi || v1 > hi || v2 > hi || v3 > hi || v0 < lo || v1 < lo || v2 < lo || v3 < lo {
			for j, v := range c {
				if v > hi {
					hi, at = v, i+j
				} else if v < lo {
					lo = v
				}
			}
		}
	}
	st.sum[k0], st.sum[k0+1], st.sum[k0+2], st.sum[k0+3] = s0, s1, s2, s3
	for k := k0; k < k0+4; k++ {
		st.hi[k], st.lo[k], st.hiAt[k] = hi, lo, float64(at)
	}
}

// summarizeScalar is the one left-to-right scan Summarize's extremes are
// defined by, and its whole answer for short and non-finite maps.
func summarizeScalar(x []float64) (hi, lo, mean float64, hiAt int) {
	lo, hi = x[0], x[0]
	acc := x[0]
	for i := 1; i < len(x); i++ {
		v := x[i]
		acc += v
		if v > hi {
			hi, hiAt = v, i
		} else if v < lo {
			lo = v
		}
	}
	return hi, lo, acc / float64(len(x)), hiAt
}
