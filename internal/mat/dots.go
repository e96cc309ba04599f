package mat

import (
	"fmt"
	"math"
)

// DotsWidth is the column granularity of the K-major blocks DotsArgMax and
// AbsDotsInto read: a block holds a positive multiple of DotsWidth columns,
// the 64 columns one pass of the AVX-512 kernels covers.
const DotsWidth = 64

// A K-major block b holds n column vectors of length k, element i of
// column c at b[i·n+c], with n = len(b)/k a positive multiple of
// DotsWidth. The kernels below form each column's product with x as
// Σ_i x[i]·b[i·n+c] over i ascending from +0, every product rounded before
// its add, which is Dot's sum: the vector kernels keep eight accumulators
// of eight columns (AVX-512) or four (AVX) each, one column per lane, and
// never fuse a multiply into an add, so they return the generic kernels'
// bits.

// dotsKernel selects an implementation of the column kernels: the AVX-512
// ones where the CPU has AVX-512, the 256-bit AVX ones where it has AVX,
// and the generic twins elsewhere. The tests run every one the CPU has.
type dotsKernel int

const (
	dotsGeneric dotsKernel = iota
	dotsAVX
	dotsAVX512
)

// dotsBest is the fastest kernel this CPU runs.
var dotsBest = func() dotsKernel {
	switch {
	case hasAVX512:
		return dotsAVX512
	case hasAVX:
		return dotsAVX
	}
	return dotsGeneric
}()

// dotsLanesAVX is the number of lanes the AVX argmax kernel reduces in.
const dotsLanesAVX = 32

// DotsArgMax returns the largest v_c over the columns c ≠ skip of the
// K-major block b, and the first column holding it: v_c = float32(|x·b_c|),
// or float32(x·b_c) when signed. A column whose product is NaN never
// qualifies, so a column of NaNs is out of the running. With no column
// qualifying it returns −∞ and −1. A skip outside [0, n) skips nothing.
func DotsArgMax(x, b []float64, skip int, signed bool) (float32, int) {
	return dotsArgMax(dotsBest, x, b, skip, signed, nil)
}

// DotsSumLanes is the number of partial sums DotsArgMaxSum keeps: column c
// adds into lane c mod DotsSumLanes.
const DotsSumLanes = 32

// DotsArgMaxSum is DotsArgMax that also returns the sum of the magnitudes
// float64(float32(|x·b_c|)) over the same columns — every c ≠ skip whose
// product is not NaN — from the pass that finds the maximum. The sum is
// blocked: lane c mod DotsSumLanes adds the magnitudes of its columns in
// ascending order from +0, and the lanes are then added pairwise (lane l
// and l+16, then l and l+8, …). Every kernel keeps those lanes and that
// order, so all of them return the same bits. The sum is not the serial
// one: for a block of n columns it is within (n/DotsSumLanes + 4)·2⁻⁵³ of
// itself of the exact sum of the magnitudes, to first order.
func DotsArgMaxSum(x, b []float64, skip int, signed bool) (float32, int, float64) {
	var sums [DotsSumLanes]float64
	v, c := dotsArgMax(dotsBest, x, b, skip, signed, &sums)
	return v, c, sumLanes(&sums)
}

// sumLanes adds DotsArgMaxSum's lanes pairwise.
func sumLanes(l *[DotsSumLanes]float64) float64 {
	for w := DotsSumLanes / 2; w > 0; w /= 2 {
		for i := 0; i < w; i++ {
			l[i] += l[i+w]
		}
	}
	return l[0]
}

// dotsArgMax runs DotsArgMax on kernel kern, and with sums non-nil also
// adds each counted column's magnitude into lane c mod DotsSumLanes of
// *sums, which must be zero on entry.
func dotsArgMax(kern dotsKernel, x, b []float64, skip int, signed bool, sums *[DotsSumLanes]float64) (float32, int) {
	n := dotsColumns(x, b)
	if skip < 0 || skip >= n {
		skip = -1
	}
	absMask := uint32(math.MaxInt32) // clears the sign bit of every float32
	if signed {
		absMask = math.MaxUint32
	}
	switch {
	case kern == dotsAVX512:
		var vals [DotsWidth]float32
		var idx [DotsWidth]int32
		dotsMaxAVX512(&x[0], &b[0], len(x), n, skip, absMask, &vals, &idx, sums)
		return laneArgMax(vals[:], idx[:])
	case kern == dotsAVX && n <= 1<<24: // its float32 column indices are exact
		var vals, fidx [dotsLanesAVX]float32
		for l := range vals {
			vals[l], fidx[l] = float32(math.Inf(-1)), -1
		}
		dotsMaxAVX(&x[0], &b[0], len(x), n, float32(skip), absMask, &vals, &fidx, sums)
		var idx [dotsLanesAVX]int32
		for l, f := range fidx {
			idx[l] = int32(f)
		}
		return laneArgMax(vals[:], idx[:])
	}
	return dotsArgMaxGeneric(x, b, n, skip, signed, sums)
}

// AbsDotsInto writes dst[c] = float32(|x·b_c|) for every column c of the
// K-major block b, and +0 where the product is NaN. len(dst) must be the
// block's column count.
func AbsDotsInto(dst []float32, x, b []float64) {
	absDotsInto(dotsBest, dst, x, b)
}

func absDotsInto(kern dotsKernel, dst []float32, x, b []float64) {
	n := dotsColumns(x, b)
	if len(dst) != n {
		panic(fmt.Sprintf("mat: AbsDotsInto dst length %d, block has %d columns", len(dst), n))
	}
	switch kern {
	case dotsAVX512:
		absDotsAVX512(&dst[0], &x[0], &b[0], len(x), n)
	case dotsAVX:
		absDotsAVX(&dst[0], &x[0], &b[0], len(x), n)
	default:
		absDotsGeneric(dst, x, b, n)
	}
}

// SubWidened subtracts each src[i], widened to float64, from dst[i]: the
// running decrement greedy placement applies to its aggregates with the
// magnitudes AbsDotsInto wrote. len(src) must be len(dst). Where the CPU
// has AVX-512, whole blocks of eight go through a vector kernel that does
// the same conversion and subtraction lane by lane.
func SubWidened(dst []float64, src []float32) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("mat: SubWidened of %d values from %d", len(src), len(dst)))
	}
	i := 0
	if hasAVX512 && len(dst) >= 8 {
		i = len(dst) &^ 7
		subWidenedAVX512(&dst[0], &src[0], i)
	}
	subWidenedGeneric(dst[i:], src[i:])
}

// subWidenedGeneric is SubWidened element by element.
func subWidenedGeneric(dst []float64, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] -= float64(v)
	}
}

// dotsColumns checks the block shape and returns its column count.
func dotsColumns(x, b []float64) int {
	if len(x) == 0 || len(b)%len(x) != 0 {
		panic(fmt.Sprintf("mat: K-major block of %d values for vectors of length %d", len(b), len(x)))
	}
	n := len(b) / len(x)
	if n == 0 || n%DotsWidth != 0 {
		panic(fmt.Sprintf("mat: K-major block of %d columns, want a positive multiple of %d", n, DotsWidth))
	}
	return n
}

// laneArgMax reduces a vector kernel's lanes, each the largest value and
// first column of its own columns (index −1 when none qualified), to the
// largest value and the first column holding it.
func laneArgMax(vals []float32, idx []int32) (float32, int) {
	best, arg := float32(math.Inf(-1)), -1
	vals = vals[:len(idx)]
	for l, i32 := range idx {
		i := int(i32)
		if i < 0 {
			continue
		}
		if v := vals[l]; arg < 0 || v > best || v == best && i < arg {
			best, arg = v, i
		}
	}
	return best, arg
}

// dotsBlock sums the products of x with the DotsWidth columns of b from
// c0 into acc, over i ascending from +0. Four columns at a time keep their
// sums in registers instead of in acc.
func dotsBlock(acc *[DotsWidth]float64, x, b []float64, n, c0 int) {
	for c := 0; c < DotsWidth; c += 4 {
		var s0, s1, s2, s3 float64
		for i, xi := range x {
			col := b[i*n+c0+c : i*n+c0+c+4 : i*n+c0+c+4]
			s0 += xi * col[0]
			s1 += xi * col[1]
			s2 += xi * col[2]
			s3 += xi * col[3]
		}
		acc[c], acc[c+1], acc[c+2], acc[c+3] = s0, s1, s2, s3
	}
}

// dotsArgMaxGeneric is DotsArgMax column by column, the strict > keeping
// the first column of the largest value, and with sums non-nil
// DotsArgMaxSum's lanes.
func dotsArgMaxGeneric(x, b []float64, n, skip int, signed bool, sums *[DotsSumLanes]float64) (float32, int) {
	best, arg := float32(math.Inf(-1)), -1
	var acc [DotsWidth]float64
	for c0 := 0; c0 < n; c0 += DotsWidth {
		dotsBlock(&acc, x, b, n, c0)
		for c, s := range acc {
			if sums != nil && c0+c != skip {
				if m := float32(math.Abs(s)); m == m {
					sums[c%DotsSumLanes] += float64(m)
				}
			}
			if !signed {
				s = math.Abs(s)
			}
			if v := float32(s); v > best && c0+c != skip {
				best, arg = v, c0+c
			}
		}
	}
	return best, arg
}

// absDotsGeneric is AbsDotsInto column by column.
func absDotsGeneric(dst []float32, x, b []float64, n int) {
	var acc [DotsWidth]float64
	for c0 := 0; c0 < n; c0 += DotsWidth {
		dotsBlock(&acc, x, b, n, c0)
		for c, s := range acc {
			v := float32(math.Abs(s))
			if v != v {
				v = 0
			}
			dst[c0+c] = v
		}
	}
}
