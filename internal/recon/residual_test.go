package recon

import (
	"math"
	"testing"

	"repro/internal/mat"
)

func TestResidualZeroInSubspace(t *testing.T) {
	// Readings synthesized inside the subspace reproject exactly: the
	// normalized residual is zero to rounding.
	k, m := 4, 8
	sensors := greedySensors(t, k, m)
	r, err := New(testBasis, k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	x := testBasis.Synthesize([]float64{5, -3, 2, 1})
	per := make([]float64, m)
	rho, err := r.ResidualInto(per, r.Sample(x))
	if err != nil {
		t.Fatal(err)
	}
	if rho > 1e-10 {
		t.Fatalf("in-subspace residual %v, want ~0", rho)
	}
	// Readings exactly at the training mean define residual 0 (0/0 case).
	meanReadings := r.Sample(testBasis.Mean)
	rho, err = r.ResidualInto(per, meanReadings)
	if err != nil {
		t.Fatal(err)
	}
	if rho != 0 {
		t.Fatalf("mean-reading residual %v, want exactly 0", rho)
	}
}

func TestResidualDetectsOutOfSubspace(t *testing.T) {
	// A strong component outside the trained subspace shows up as a large
	// normalized residual, and a single-sensor spike concentrates the
	// per-sensor attribution on that coordinate.
	k, m := 4, 8
	sensors := greedySensors(t, k, m)
	r, err := New(testBasis, k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	x := testBasis.Synthesize([]float64{5, -3, 2, 1})
	readings := r.Sample(x)
	readings[3] += 40 // stuck/offset sensor
	per := make([]float64, m)
	rho, err := r.ResidualInto(per, readings)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.05 {
		t.Fatalf("spiked residual %v, want clearly nonzero", rho)
	}
	var total, at3 float64
	for i, v := range per {
		total += v * v
		if i == 3 {
			at3 = v * v
		}
	}
	if at3/total < 0.5 {
		t.Fatalf("sensor 3 carries %v of residual energy, want majority", at3/total)
	}
}

func TestResidualProjectorIdempotent(t *testing.T) {
	// P is an orthogonal projector: P² = P and ‖ρ‖ ≤ 1 for any readings.
	k, m := 3, 7
	sensors := greedySensors(t, k, m)
	r, err := New(testBasis, k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	p := r.ResidualProjector()
	p2 := mat.Mul(p, p)
	if !p2.Equal(p, 1e-10) {
		t.Fatal("residual projector not idempotent")
	}
	per := make([]float64, m)
	for j := 0; j < testSet.T(); j += 7 {
		rho, err := r.ResidualInto(per, r.Sample(testSet.Map(j)))
		if err != nil {
			t.Fatal(err)
		}
		if rho < 0 || rho > 1+1e-12 || math.IsNaN(rho) {
			t.Fatalf("map %d: normalized residual %v outside [0,1]", j, rho)
		}
	}
}

func TestResidualIntoValidates(t *testing.T) {
	k, m := 3, 6
	sensors := greedySensors(t, k, m)
	r, err := New(testBasis, k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ResidualInto(make([]float64, m-1), make([]float64, m)); err == nil {
		t.Fatal("short destination should fail")
	}
	bad := make([]float64, m)
	bad[2] = math.NaN()
	if _, err := r.ResidualInto(make([]float64, m), bad); err == nil {
		t.Fatal("NaN reading should fail")
	}
}

func TestResidualStatsAgree(t *testing.T) {
	// The three scorers must agree: per-row ResidualInto, the batched
	// ResidualStats, and ResidualStatsFromEstimates (which reuses the
	// already-computed reconstruction instead of the residual matvec —
	// the serving hot path).
	k, m := 4, 8
	sensors := greedySensors(t, k, m)
	r, err := New(testBasis, k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 0, 12)
	maps := make([][]float64, 0, 12)
	for j := 0; j < testSet.T() && len(rows) < 12; j += 5 {
		row := r.Sample(testSet.Map(j))
		row[j%m] += float64(j % 13) // perturb so residuals are nonzero
		x, err := r.Reconstruct(row)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
		maps = append(maps, x)
	}
	// Reference: per-row scoring.
	per := make([]float64, m)
	wantEnergy := make([]float64, m)
	var wantRho float64
	for _, row := range rows {
		rho, err := r.ResidualInto(per, row)
		if err != nil {
			t.Fatal(err)
		}
		wantRho += rho / float64(len(rows))
		for i, v := range per {
			wantEnergy[i] += v * v
		}
	}
	checkAgainst := func(name string, rho float64, n int, energy []float64) {
		t.Helper()
		if n != len(rows) {
			t.Fatalf("%s scored %d rows, want %d", name, n, len(rows))
		}
		if math.Abs(rho-wantRho) > 1e-10*(1+wantRho) {
			t.Fatalf("%s mean rho %v, want %v", name, rho, wantRho)
		}
		for i := range energy {
			if math.Abs(energy[i]-wantEnergy[i]) > 1e-8*(1+wantEnergy[i]) {
				t.Fatalf("%s energy[%d] = %v, want %v", name, i, energy[i], wantEnergy[i])
			}
		}
	}
	energy := make([]float64, m)
	rho, n, err := r.ResidualStats(energy, rows)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst("ResidualStats", rho, n, energy)
	rho, n, err = r.ResidualStatsFromEstimates(energy, rows, maps)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst("ResidualStatsFromEstimates", rho, n, energy)

	// Skipping contract: a wrong-length row is skipped by both, not fatal.
	short := append([][]float64{make([]float64, m-1)}, rows...)
	shortMaps := append([][]float64{maps[0]}, maps...)
	if _, n, err = r.ResidualStats(energy, short); err != nil || n != len(rows) {
		t.Fatalf("ResidualStats with short row: n=%d err=%v", n, err)
	}
	if _, n, err = r.ResidualStatsFromEstimates(energy, short, shortMaps); err != nil || n != len(rows) {
		t.Fatalf("ResidualStatsFromEstimates with short row: n=%d err=%v", n, err)
	}
	// Validation contract: mismatched lengths are errors.
	if _, _, err = r.ResidualStats(make([]float64, m-1), rows); err == nil {
		t.Fatal("short energy should fail")
	}
	if _, _, err = r.ResidualStatsFromEstimates(energy, rows, maps[:1]); err == nil {
		t.Fatal("rows/maps mismatch should fail")
	}
}

func TestRestoredResidualMatchesFresh(t *testing.T) {
	// RestoreWithOperator must rebuild the same residual projector the fresh
	// constructor folds: detection behaves identically across a save/load
	// cycle.
	k, m := 4, 9
	sensors := greedySensors(t, k, m)
	fresh, err := New(testBasis, k, sensors)
	if err != nil {
		t.Fatal(err)
	}
	op, bias := fresh.Operator()
	withOp, err := RestoreWithOperator(testBasis, k, sensors, fresh.QR(), op, bias)
	if err != nil {
		t.Fatal(err)
	}
	if !withOp.ResidualProjector().Equal(fresh.ResidualProjector(), 0) {
		t.Fatal("operator-restored residual projector differs bitwise")
	}
}
