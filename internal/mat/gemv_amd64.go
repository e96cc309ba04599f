package mat

import "sync"

// hasAVX reports whether this CPU and OS run 256-bit AVX code: CPUID
// advertises AVX and OSXSAVE, and XCR0 shows the OS saving the XMM and YMM
// register state. It is read once, at package init.
var hasAVX = cpuHasAVX()

func cpuHasAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	xcr0, _ := xgetbv()
	return xcr0&xmmYmm == xmmYmm
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0. Call it only when CPUID
// reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// mulBias4x4 writes dk[i] = bias[i] + Σ_j a[i·m+j]·xp[4j+k] for the four
// snapshots k and rows i in [0, rows): a is the row-major operator, xp the
// four snapshots' readings packed j-major (xp[4j+k] = reading j of
// snapshot k). rows must be a positive multiple of 4 and m positive.
//
//go:noescape
func mulBias4x4(d0, d1, d2, d3, bias, a, xp *float64, rows, m int)

// packStackCols is the widest operator whose packed block of readings
// (4·cols float64s, 2 KiB here) lives on the stack; wider ones borrow a
// buffer from packPool.
const packStackCols = 64

var packPool = sync.Pool{New: func() any { return new([]float64) }}

// mulBiasBatchAsm runs every whole block of four snapshots through the AVX
// kernel, the operator's last rows%4 rows through the generic one, and
// returns how many leading snapshots it wrote: a multiple of 4, or 0 when
// the CPU lacks AVX or the shape leaves the kernel nothing to do.
func mulBiasBatchAsm(dst [][]float64, bias []float64, a *Matrix, xs [][]float64) int {
	m := a.cols
	rows4 := a.rows &^ 3
	if !hasAVX || m == 0 || rows4 == 0 || len(xs) < 4 {
		return 0
	}
	var stack [4 * packStackCols]float64
	xp := stack[:]
	if m > packStackCols {
		p := packPool.Get().(*[]float64)
		defer packPool.Put(p)
		if cap(*p) < 4*m {
			*p = make([]float64, 4*m)
		}
		xp = *p
	}
	xp = xp[:4*m]
	t := 0
	for ; t+4 <= len(xs); t += 4 {
		x0, x1, x2, x3 := xs[t][:m], xs[t+1][:m], xs[t+2][:m], xs[t+3][:m]
		for j := range x0 {
			p := xp[4*j : 4*j+4]
			p[0], p[1], p[2], p[3] = x0[j], x1[j], x2[j], x3[j]
		}
		mulBias4x4(&dst[t][0], &dst[t+1][0], &dst[t+2][0], &dst[t+3][0], &bias[0], &a.data[0], &xp[0], rows4, m)
		if rows4 < a.rows {
			mulBiasRows4(dst[t:t+4], bias, a, xs[t:t+4], rows4, a.rows)
		}
	}
	return t
}
