//go:build !amd64

package mat

// hasAVX is false off amd64: the generic kernel serves every batch.
const hasAVX = false

// mulBiasBatchAsm has no vector kernel to run off amd64 and writes nothing.
func mulBiasBatchAsm(dst [][]float64, bias []float64, a *Matrix, xs [][]float64) int {
	return 0
}
