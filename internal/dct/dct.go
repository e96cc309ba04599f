// Package dct implements the orthonormal 2-D discrete cosine transform
// (DCT-II) used by the k-LSE baseline (Nowroz, Cochran, Reda — DAC 2010):
// low-frequency DCT basis vectors serve as the a-priori thermal-map subspace
// that EigenMaps improves upon.
package dct

import (
	"math"

	"repro/internal/floorplan"
	"repro/internal/mat"
)

// Freq identifies one 2-D DCT basis function by its vertical (U, along rows)
// and horizontal (V, along columns) frequency indices.
type Freq struct {
	U, V int
}

// BasisVector returns the vectorized (column-stacked, matching
// floorplan.Grid.Index) orthonormal 2-D DCT basis function for frequency f
// on grid g.
func BasisVector(g floorplan.Grid, f Freq) []float64 {
	if f.U < 0 || f.U >= g.H || f.V < 0 || f.V >= g.W {
		panic("dct: frequency out of range")
	}
	au := alpha(f.U, g.H)
	av := alpha(f.V, g.W)
	out := make([]float64, g.N())
	for col := 0; col < g.W; col++ {
		cv := math.Cos(math.Pi * float64(2*col+1) * float64(f.V) / float64(2*g.W))
		for row := 0; row < g.H; row++ {
			cu := math.Cos(math.Pi * float64(2*row+1) * float64(f.U) / float64(2*g.H))
			out[g.Index(row, col)] = au * av * cu * cv
		}
	}
	return out
}

// alpha is the DCT-II orthonormalization factor.
func alpha(k, n int) float64 {
	if k == 0 {
		return math.Sqrt(1 / float64(n))
	}
	return math.Sqrt(2 / float64(n))
}

// BasisMatrix assembles the N×len(freqs) matrix whose columns are the basis
// vectors for freqs, in order.
func BasisMatrix(g floorplan.Grid, freqs []Freq) *mat.Matrix {
	out := mat.New(g.N(), len(freqs))
	for j, f := range freqs {
		out.SetCol(j, BasisVector(g, f))
	}
	return out
}

// ZigZag returns the first k frequencies in JPEG-style zig-zag order
// (ascending u+v diagonals, alternating direction), the standard
// "low-pass" selection.
func ZigZag(g floorplan.Grid, k int) []Freq {
	if k > g.N() {
		k = g.N()
	}
	out := make([]Freq, 0, k)
	for s := 0; s <= g.H+g.W-2 && len(out) < k; s++ {
		if s%2 == 0 {
			// Walk the diagonal upward: u descending.
			for u := min(s, g.H-1); u >= 0 && len(out) < k; u-- {
				if v := s - u; v < g.W {
					out = append(out, Freq{U: u, V: v})
				}
			}
		} else {
			for v := min(s, g.W-1); v >= 0 && len(out) < k; v-- {
				if u := s - v; u < g.H {
					out = append(out, Freq{U: u, V: v})
				}
			}
		}
	}
	return out
}

// Transform2D computes all N DCT-II coefficients of the vectorized map x on
// grid g, returned indexed by Index2 (column stacking of the (u,v) plane with
// the same convention: coef[v*H+u]). It uses the separable row/column
// decomposition, O(N·(W+H)).
func Transform2D(g floorplan.Grid, x []float64) []float64 {
	if len(x) != g.N() {
		panic("dct: map length mismatch")
	}
	// First pass: 1-D DCT along rows (within each column).
	tmp := make([]float64, g.N())
	colBuf := make([]float64, g.H)
	outBuf := make([]float64, g.H)
	for col := 0; col < g.W; col++ {
		for row := 0; row < g.H; row++ {
			colBuf[row] = x[g.Index(row, col)]
		}
		dct1D(colBuf, outBuf)
		for u := 0; u < g.H; u++ {
			tmp[g.Index(u, col)] = outBuf[u]
		}
	}
	// Second pass: 1-D DCT along columns (within each row).
	out := make([]float64, g.N())
	rowBuf := make([]float64, g.W)
	rowOut := make([]float64, g.W)
	for u := 0; u < g.H; u++ {
		for col := 0; col < g.W; col++ {
			rowBuf[col] = tmp[g.Index(u, col)]
		}
		dct1D(rowBuf, rowOut)
		for v := 0; v < g.W; v++ {
			out[g.Index(u, v)] = rowOut[v]
		}
	}
	return out
}

// dct1D computes the orthonormal DCT-II of in into out (same length).
func dct1D(in, out []float64) {
	n := len(in)
	for k := 0; k < n; k++ {
		var s float64
		for i := 0; i < n; i++ {
			s += in[i] * math.Cos(math.Pi*float64(2*i+1)*float64(k)/float64(2*n))
		}
		out[k] = alpha(k, n) * s
	}
}

// Coefficient returns the index of frequency f in Transform2D's output.
func Coefficient(g floorplan.Grid, f Freq) int {
	return g.Index(f.U, f.V)
}
