package experiments

import (
	"fmt"
	"strings"

	"repro/internal/render"
)

// Fig2Result reproduces Fig. 2: the leading EigenMaps rendered as images and
// the eigenvalue decay of the thermal covariance.
type Fig2Result struct {
	// Eigenvalues of the sample covariance, descending (right plot).
	Eigenvalues []float64
	// Renders holds ASCII renderings of the first few EigenMaps (left plot).
	Renders []string
	// RendersShown is how many EigenMaps were rendered.
	RendersShown int
}

// Fig2 extracts the spectrum and renders the first `show` EigenMaps
// (the paper shows a selection of the first 32).
func (e *Env) Fig2(show int) (*Fig2Result, error) {
	b := e.PCA.Basis
	if show > b.KMax() {
		show = b.KMax()
	}
	res := &Fig2Result{
		Eigenvalues:  append([]float64(nil), b.Importance...),
		RendersShown: show,
	}
	for k := 0; k < show; k++ {
		res.Renders = append(res.Renders, render.ASCII(b.Grid, b.Psi.Col(k), render.Options{}))
	}
	return res, nil
}

// String prints the eigenvalue decay (and notes the rendered maps).
func (r *Fig2Result) String() string {
	var b strings.Builder
	b.WriteString("== Fig. 2 (right): eigenvalue decay of the thermal covariance ==\n")
	b.WriteString("k          lambda_k\n")
	for i, v := range r.Eigenvalues {
		fmt.Fprintf(&b, "%-10d %.6g\n", i+1, v)
	}
	fmt.Fprintf(&b, "(Fig. 2 left: %d EigenMaps rendered; see Renders)\n", r.RendersShown)
	return b.String()
}
