package mat

import "sync"

// Affine kernels for the precomputed reconstruction operator: the serving
// hot path is dst = bias + A·x with A the N×M operator, applied either to a
// single reading vector (Estimate) or to a whole batch of them
// (EstimateBatch / one request's batch on the daemon's estimate and govern
// routes). Both kernels are
// allocation-free and blocked for instruction-level parallelism: the naive
// single-accumulator loop serializes on the floating-point add chain, while
// four independent accumulators keep the multiply and add units busy.

// MulVecBiasInto writes dst = bias + a·x. dst must have length a.Rows(),
// bias length a.Rows(), x length a.Cols(). dst must not alias bias or x.
//
// Rows are processed four at a time with independent accumulators, so the
// four dot products overlap in the floating-point pipeline instead of
// serializing on one add chain. Within a row the accumulation order is plain
// left-to-right, identical to Dot, so results are deterministic.
func MulVecBiasInto(dst, bias []float64, a *Matrix, x []float64) {
	if len(x) != a.cols || len(dst) != a.rows || len(bias) != a.rows {
		panic(ErrShape)
	}
	n := a.cols
	i := 0
	for ; i+4 <= a.rows; i += 4 {
		base := i * n
		r0 := a.data[base+0*n : base+1*n]
		r1 := a.data[base+1*n : base+2*n]
		r2 := a.data[base+2*n : base+3*n]
		r3 := a.data[base+3*n : base+4*n]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		dst[i+0] = bias[i+0] + s0
		dst[i+1] = bias[i+1] + s1
		dst[i+2] = bias[i+2] + s2
		dst[i+3] = bias[i+3] + s3
	}
	for ; i < a.rows; i++ {
		row := a.data[i*n : (i+1)*n]
		var s float64
		for j, xv := range x {
			s += row[j] * xv
		}
		dst[i] = bias[i] + s
	}
}

// mulVecSeeded is MulVecBiasInto's seeded form, one snapshot of
// MulVecSeededBatchInto: each row's sum starts at bias[i], and no bias is
// added after it. Shapes are the caller's to check.
func mulVecSeeded(dst, bias []float64, a *Matrix, x []float64) {
	n := a.cols
	for i := range dst {
		row := a.data[i*n : (i+1)*n]
		s := bias[i]
		for j, xv := range x {
			s += row[j] * xv
		}
		dst[i] = s
	}
}

// MulVecBiasBatchInto applies dst[t] = bias + a·xs[t] for every snapshot t.
// Each dst[t] must have length a.Rows() and each xs[t] length a.Cols();
// len(dst) must equal len(xs). Snapshots are processed four at a time so
// each operator row is loaded from memory once per block of four — the
// blocked-GEMM form of the serving path. Per-snapshot results are
// bit-identical to MulVecBiasInto on the same inputs: every dot product
// accumulates left-to-right in its own register.
//
// On amd64 the whole blocks of snapshots run through vector kernels
// (gemv_amd64.s) that repeat the generic kernel's operations lane by lane
// in the same order, so their output is bit-identical too: with AVX-512,
// blocks of eight snapshots through an 8-row × 8-snapshot kernel; with AVX,
// the blocks of four left over (or all of them, without AVX-512) through a
// 4-row × 4-snapshot one. The generic kernel serves every other platform
// and the row and snapshot tails.
func MulVecBiasBatchInto(dst [][]float64, bias []float64, a *Matrix, xs [][]float64) {
	mulBiasBatch(dst, bias, a, xs, false)
}

// MulVecSeededBatchInto is MulVecBiasBatchInto with each sum seeded by the
// bias: dst[t][i] = ((bias[i] + a[i][0]·xs[t][0]) + a[i][1]·xs[t][1]) + …,
// in ascending j, with no add after the last product. That is the order of
// a synthesized map, mean first and then one coefficient term at a time
// (basis.SynthesizeInto), so it returns those bits, signed zeros included:
// a −0 bias cell whose products are all −0 stays −0, which the unseeded
// form, adding the bias to a sum started at +0, turns into +0. It runs
// through the same vector and generic kernels, on the same shapes.
func MulVecSeededBatchInto(dst [][]float64, bias []float64, a *Matrix, xs [][]float64) {
	mulBiasBatch(dst, bias, a, xs, true)
}

// mulBiasBatch checks the batch's shapes and runs it through the fastest
// kernels this CPU has, seeded or not.
func mulBiasBatch(dst [][]float64, bias []float64, a *Matrix, xs [][]float64, seeded bool) {
	if len(dst) != len(xs) {
		panic(ErrShape)
	}
	n := a.cols
	for _, x := range xs {
		if len(x) != n {
			panic(ErrShape)
		}
	}
	for _, d := range dst {
		if len(d) != a.rows || len(bias) != a.rows {
			panic(ErrShape)
		}
	}
	t := 0
	if hasAVX {
		t = mulBiasBatchVec(dst, bias, a, xs, hasAVX512, seeded)
	}
	mulBiasBatchGeneric(dst[t:], bias, a, xs[t:], seeded)
}

// packStack is the largest packed block of readings (width·cols float64s,
// 2 KiB) that lives on the stack; wider blocks borrow a buffer from
// packPool.
const packStack = 256

var packPool = sync.Pool{New: func() any { return new([]float64) }}

// mulBiasBatchVec runs every whole block of eight snapshots through the
// AVX-512 kernel when wide is set, then every whole block of four left
// through the AVX kernel, and the operator's rows past the kernels' last
// whole row block through the generic one. It returns how many leading
// snapshots it wrote: a multiple of 4, or 0 when the shape leaves the
// kernels nothing to do. The caller checks that the CPU runs the kernels
// it asks for.
func mulBiasBatchVec(dst [][]float64, bias []float64, a *Matrix, xs [][]float64, wide, seeded bool) int {
	m := a.cols
	if m == 0 || a.rows < 4 || len(xs) < 4 {
		return 0
	}
	wide = wide && a.rows >= 8 && len(xs) >= 8
	width := 4
	if wide {
		width = 8
	}
	var stack [packStack]float64
	xp := stack[:]
	if width*m > packStack {
		p := packPool.Get().(*[]float64)
		defer packPool.Put(p)
		if cap(*p) < width*m {
			*p = make([]float64, width*m)
		}
		xp = *p
	}
	t := 0
	if wide {
		rows8 := a.rows &^ 7
		for ; t+8 <= len(xs); t += 8 {
			packReadings(xp[:8*m], xs[t:t+8])
			d := dst[t : t+8]
			mulBias8x8(&d[0][0], &d[1][0], &d[2][0], &d[3][0], &d[4][0], &d[5][0], &d[6][0], &d[7][0],
				&bias[0], &a.data[0], &xp[0], rows8, m, seeded)
			if rows8 < a.rows {
				mulRows4(d[:4], bias, a, xs[t:t+4], rows8, a.rows, seeded)
				mulRows4(d[4:], bias, a, xs[t+4:t+8], rows8, a.rows, seeded)
			}
		}
	}
	rows4 := a.rows &^ 3
	for ; t+4 <= len(xs); t += 4 {
		packReadings(xp[:4*m], xs[t:t+4])
		d := dst[t : t+4]
		mulBias4x4(&d[0][0], &d[1][0], &d[2][0], &d[3][0], &bias[0], &a.data[0], &xp[0], rows4, m, seeded)
		if rows4 < a.rows {
			mulRows4(d, bias, a, xs[t:t+4], rows4, a.rows, seeded)
		}
	}
	return t
}

// packReadings packs the snapshots xs j-major into xp, the layout the
// vector kernels load one reading of every snapshot from:
// xp[len(xs)·j+k] = xs[k][j].
func packReadings(xp []float64, xs [][]float64) {
	w := len(xs)
	for k, x := range xs {
		for j, v := range x {
			xp[w*j+k] = v
		}
	}
}

// mulBiasBatchGeneric is the portable batch kernel behind
// MulVecBiasBatchInto and, with seeded set, MulVecSeededBatchInto, and the
// reference the vector kernels are tested against. Shapes are the
// caller's to check.
func mulBiasBatchGeneric(dst [][]float64, bias []float64, a *Matrix, xs [][]float64, seeded bool) {
	t := 0
	for ; t+4 <= len(xs); t += 4 {
		mulRows4(dst[t:t+4], bias, a, xs[t:t+4], 0, a.rows, seeded)
	}
	for ; t < len(xs); t++ {
		if seeded {
			mulVecSeeded(dst[t], bias, a, xs[t])
		} else {
			MulVecBiasInto(dst[t], bias, a, xs[t])
		}
	}
}

// mulRows4 runs the generic four-snapshot row kernel of the mode. The two
// modes are two functions, so neither loop gives a register to the other.
func mulRows4(dst [][]float64, bias []float64, a *Matrix, xs [][]float64, lo, hi int, seeded bool) {
	if seeded {
		mulSeededRows4(dst, bias, a, xs, lo, hi)
	} else {
		mulBiasRows4(dst, bias, a, xs, lo, hi)
	}
}

// mulBiasRows4 writes rows [lo, hi) of four snapshots' maps,
// dst[k][i] = bias[i] + a.Row(i)·xs[k] for k < 4, loading each operator row
// once for all four.
func mulBiasRows4(dst [][]float64, bias []float64, a *Matrix, xs [][]float64, lo, hi int) {
	n := a.cols
	x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
	d0, d1, d2, d3 := dst[0], dst[1], dst[2], dst[3]
	for i := lo; i < hi; i++ {
		row := a.data[i*n : (i+1)*n]
		var s0, s1, s2, s3 float64
		for j, rv := range row {
			s0 += rv * x0[j]
			s1 += rv * x1[j]
			s2 += rv * x2[j]
			s3 += rv * x3[j]
		}
		b := bias[i]
		d0[i] = b + s0
		d1[i] = b + s1
		d2[i] = b + s2
		d3[i] = b + s3
	}
}

// mulSeededRows4 is mulBiasRows4 with each sum starting at bias[i] and no
// bias added after it.
func mulSeededRows4(dst [][]float64, bias []float64, a *Matrix, xs [][]float64, lo, hi int) {
	n := a.cols
	x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
	d0, d1, d2, d3 := dst[0], dst[1], dst[2], dst[3]
	for i := lo; i < hi; i++ {
		row := a.data[i*n : (i+1)*n]
		b := bias[i]
		s0, s1, s2, s3 := b, b, b, b
		for j, rv := range row {
			s0 += rv * x0[j]
			s1 += rv * x1[j]
			s2 += rv * x2[j]
			s3 += rv * x3[j]
		}
		d0[i], d1[i], d2[i], d3[i] = s0, s1, s2, s3
	}
}
