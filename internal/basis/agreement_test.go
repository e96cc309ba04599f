package basis

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/mat"
)

// maxPrincipalAngleSin returns the sine of the largest principal angle
// between the column spans of a and b (both orthonormal N×k blocks):
// the largest singular value of the residual B − A(AᵀB). The sine-based
// form stays accurate for tiny angles, where cos θ rounds to 1 in float64.
func maxPrincipalAngleSin(t *testing.T, a, b *mat.Matrix) float64 {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	r := b.Clone().SubMatrix(mat.Mul(a, mat.Mul(a.T(), b)))
	sv, err := mat.SingularValues(r)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, s := range sv {
		if s > worst {
			worst = s
		}
	}
	return worst
}

// agreementEnsemble simulates a small thermally realistic ensemble for the
// given floorplan and shape.
func agreementEnsemble(t *testing.T, fp *floorplan.Floorplan, snapshots int, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(fp, dataset.GenConfig{
		Grid:      floorplan.Grid{W: 12, H: 10},
		Snapshots: snapshots,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// trainMethod trains the EigenMaps basis with a forced eigensolver side and
// a tight covariance-iteration tolerance.
func trainMethod(t *testing.T, ds *dataset.Dataset, kmax int, m PCAMethod) *Basis {
	t.Helper()
	b, err := TrainPCA(ds, kmax, PCAConfig{
		Seed:     7,
		Method:   m,
		Subspace: mat.SubspaceOptions{Tol: 1e-14},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGramCovarianceSubspaceAgreement pins the tentpole's correctness claim:
// on both bundled floorplans the snapshot-Gram dual and the covariance
// subspace iteration span the same K-dimensional EigenMaps subspace to
// numerical precision (largest principal angle < 1e-8), with matching
// eigenvalues.
func TestGramCovarianceSubspaceAgreement(t *testing.T) {
	const kmax = 6
	for _, tc := range []struct {
		name      string
		fp        *floorplan.Floorplan
		snapshots int
	}{
		{"t1/T<N", floorplan.UltraSparcT1(), 60},
		{"athlon/T<N", floorplan.AthlonDualCore(), 60},
		{"t1/T>=N", floorplan.UltraSparcT1(), 150},
		{"athlon/T>=N", floorplan.AthlonDualCore(), 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := agreementEnsemble(t, tc.fp, tc.snapshots, 42)
			gram := trainMethod(t, ds, kmax, PCAGram)
			cov := trainMethod(t, ds, kmax, PCACovariance)
			if s := maxPrincipalAngleSin(t, cov.Psi, gram.Psi); s > 1e-8 {
				t.Fatalf("principal angle sin %v ≥ 1e-8 between gram and covariance bases", s)
			}
			for i := range gram.Importance {
				g, c := gram.Importance[i], cov.Importance[i]
				if diff := g - c; diff > 1e-8*(cov.Importance[0]+1) || diff < -1e-8*(cov.Importance[0]+1) {
					t.Fatalf("eigenvalue %d differs across methods: gram %v vs covariance %v", i, g, c)
				}
			}
		})
	}
}

// TestPCAAutoSelection pins the cost-model dispatch: auto resolves to the
// Gram dual exactly when the ensemble is short relative to the grid AND
// short enough (T ≤ max(128, 8·kmax)) that the dense T×T eigensolve stays
// cheaper than iterating on the covariance; everything else falls back to
// covariance iteration.
func TestPCAAutoSelection(t *testing.T) {
	for _, tc := range []struct {
		t, n, kmax int
		want       PCAMethod
	}{
		{60, 120, 8, PCAGram},
		{119, 120, 8, PCAGram},
		{120, 120, 8, PCACovariance},    // T ≥ N: Gram side has no edge
		{150, 120, 8, PCACovariance},    // T ≥ N
		{400, 1200, 32, PCACovariance},  // T past the eigensolve crossover
		{240, 528, 20, PCACovariance},   // QuickConfig shape: measured 2× cheaper via covariance
		{300, 1200, 40, PCAGram},        // wide block favors the Gram side
		{2652, 3360, 40, PCACovariance}, // the paper's full-scale shape
	} {
		if got := ResolvePCAMethod(PCAAuto, tc.t, tc.n, tc.kmax); got != tc.want {
			t.Fatalf("ResolvePCAMethod(auto, %d, %d, %d) = %v, want %v", tc.t, tc.n, tc.kmax, got, tc.want)
		}
	}
	// Concrete methods pass through untouched.
	if ResolvePCAMethod(PCAGram, 500, 10, 8) != PCAGram || ResolvePCAMethod(PCACovariance, 10, 500, 8) != PCACovariance {
		t.Fatal("forced methods must not be overridden")
	}
	// And the T ≥ N fallback trains through the covariance path without the
	// caller asking for it.
	ds := agreementEnsemble(t, floorplan.UltraSparcT1(), 150, 9)
	auto, err := TrainPCA(ds, 5, PCAConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cov := trainMethod(t, ds, 5, PCACovariance)
	if s := maxPrincipalAngleSin(t, cov.Psi, auto.Psi); s > 1e-6 {
		t.Fatalf("auto at T ≥ N diverged from covariance path: sin %v", s)
	}
}

// TestGramWorkersInvariant pins that the worker cap changes scheduling, not
// results: the Gram path is bit-identical across worker counts.
func TestGramWorkersInvariant(t *testing.T) {
	ds := agreementEnsemble(t, floorplan.UltraSparcT1(), 80, 13)
	seq, err := trainPCAWorkers(ds, 8, PCAConfig{Method: PCAGram}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 5} {
		par, err := trainPCAWorkers(ds, 8, PCAConfig{Method: PCAGram}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !par.Psi.Equal(seq.Psi, 0) {
			t.Fatalf("workers=%d changed the trained basis", workers)
		}
		for i := range seq.Importance {
			if par.Importance[i] != seq.Importance[i] {
				t.Fatalf("workers=%d changed eigenvalue %d", workers, i)
			}
		}
	}
}
