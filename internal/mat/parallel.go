package mat

import (
	"runtime"
	"sync"
)

// ParallelThreshold is the one fan-out rule of the kernels and of batch
// reconstruction: work of fewer multiply-adds than this stays on the
// calling goroutine, where goroutine fan-out would cost more than it saves.
const ParallelThreshold = 1 << 22

// ParallelChunks splits [0, n) into contiguous chunks and runs fn on each
// from its own goroutine, blocking until all complete. workers caps the
// goroutine count (0 or negative means runtime.NumCPU()); it is further
// clamped to n. fn must only touch indices in its own [lo, hi) range. With a
// single worker fn runs on the calling goroutine with no synchronization
// overhead.
func ParallelChunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// RowGramWorkers returns a·aᵀ (see RowGram), fanning blocks of rows out over
// at most workers goroutines (0 or negative = runtime.NumCPU()); small Grams
// stay single-threaded.
//
// Rows are formed eight at a time, the width of the AVX-512 batch kernel, as
// one MulVecBiasBatchInto product of the trailing rows of a against a zero
// bias, which writes each block's upper part; the strictly lower triangle is
// then mirrored. Every entry is one dot product summed left to right from
// +0 — Dot's sum, the same for (i, j) and (j, i) since the products commute
// — so the result is bit-identical to RowGram for every worker count.
func RowGramWorkers(a *Matrix, workers int) *Matrix {
	if a.rows*a.rows*a.cols/2 < ParallelThreshold {
		workers = 1
	}
	n, c := a.rows, a.cols
	out := New(n, n)
	zero := make([]float64, n)
	rows := a.rowViews()
	ParallelChunks((n+7)/8, workers, func(lo, hi int) {
		dst := make([][]float64, 8)
		for b := lo; b < hi; b++ {
			i0, i1 := 8*b, min(8*b+8, n)
			for i := i0; i < i1; i++ {
				dst[i-i0] = out.data[i*n+i0 : (i+1)*n]
			}
			tail := &Matrix{rows: n - i0, cols: c, data: a.data[i0*c:]}
			MulVecBiasBatchInto(dst[:i1-i0], zero[i0:], tail, rows[i0:i1])
		}
	})
	for i := 8; i < n; i++ {
		for j := 0; j < i&^7; j++ {
			out.data[i*n+j] = out.data[j*n+i]
		}
	}
	return out
}
