package recon

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mat"
)

// batchReconstructor builds a shared K=4, M=8 reconstructor over the test
// basis plus a few in-subspace reading vectors.
func batchFixture(t *testing.T) (*Reconstructor, [][]float64, [][]float64) {
	t.Helper()
	const k, m = 4, 8
	sensors := greedySensors(t, k, m)
	r, err := New(testBasis, k, sensors[:m])
	if err != nil {
		t.Fatal(err)
	}
	var readings, want [][]float64
	for j := 0; j < 16; j++ {
		x := testSet.Map(j % testSet.T())
		xS := r.Sample(x)
		rec, err := r.Reconstruct(xS)
		if err != nil {
			t.Fatal(err)
		}
		readings = append(readings, xS)
		want = append(want, rec)
	}
	return r, readings, want
}

func TestReconstructIntoMatchesReconstruct(t *testing.T) {
	r, readings, want := batchFixture(t)
	dst := make([]float64, testBasis.N())
	for i, xS := range readings {
		if err := r.ReconstructInto(dst, xS); err != nil {
			t.Fatal(err)
		}
		for c := range dst {
			if dst[c] != want[i][c] {
				t.Fatalf("snapshot %d cell %d: Into %v != Reconstruct %v", i, c, dst[c], want[i][c])
			}
		}
	}
	if err := r.ReconstructInto(make([]float64, 3), readings[0]); err == nil {
		t.Fatal("short destination should fail")
	}
}

// Whatever the batch length and worker count, every snapshot matches its
// single estimate. These batches are below mat.ParallelThreshold, so they
// run on the calling goroutine; TestReconstructBatchFansOutAboveThreshold
// covers the sharded path.
func TestReconstructBatchMatchesSequential(t *testing.T) {
	r, readings, want := batchFixture(t)
	for _, n := range []int{1, 5, 6, 16} {
		for _, workers := range []int{1, 2, 3, 16, 0} {
			got, err := r.ReconstructBatch(readings[:n], workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range got {
				for c := range got[i] {
					if got[i][c] != want[i][c] {
						t.Fatalf("n=%d workers=%d snapshot %d cell %d: %v != %v", n, workers, i, c, got[i][c], want[i][c])
					}
				}
			}
		}
	}
}

// A batch of at least mat.ParallelThreshold multiply-adds shards over the
// workers on 8-snapshot blocks; every snapshot still matches its single
// estimate bit for bit. The batch ends in a partial block, and under -race
// this is the fan-out path's race coverage.
func TestReconstructBatchFansOutAboveThreshold(t *testing.T) {
	r, readings, want := batchFixture(t)
	perSnapshot := testBasis.N() * len(readings[0])
	n := mat.ParallelThreshold/perSnapshot + 13
	if n*perSnapshot < mat.ParallelThreshold {
		t.Fatalf("batch of %d is below the fan-out threshold", n)
	}
	batch := make([][]float64, n)
	for i := range batch {
		batch[i] = readings[i%len(readings)]
	}
	for _, workers := range []int{3, 0} {
		got, err := r.ReconstructBatch(batch, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			w := want[i%len(want)]
			for c := range got[i] {
				if math.Float64bits(got[i][c]) != math.Float64bits(w[c]) {
					t.Fatalf("workers=%d snapshot %d cell %d: %v != %v", workers, i, c, got[i][c], w[c])
				}
			}
		}
	}
}

func TestBatchRejectsNaNWithIndex(t *testing.T) {
	r, readings, _ := batchFixture(t)
	bad := make([]float64, len(readings[0]))
	copy(bad, readings[0])
	bad[2] = math.NaN()
	batch := [][]float64{readings[0], readings[1], bad, readings[2]}
	_, err := r.ReconstructBatch(batch, 2)
	if !errors.Is(err, ErrBadReading) {
		t.Fatalf("NaN batch err = %v", err)
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 2 {
		t.Fatalf("batch error index = %+v", err)
	}

	// Single-snapshot paths reject NaN and Inf too.
	if _, err := r.Reconstruct(bad); !errors.Is(err, ErrBadReading) {
		t.Fatalf("Reconstruct NaN err = %v", err)
	}
	bad[2] = math.Inf(-1)
	if _, err := r.Coefficients(bad); !errors.Is(err, ErrBadReading) {
		t.Fatalf("Coefficients -Inf err = %v", err)
	}
}

func TestBatchShapeErrors(t *testing.T) {
	r, readings, _ := batchFixture(t)
	dst := make([][]float64, len(readings)-1)
	if err := r.ReconstructBatchInto(dst, readings, 0); err == nil {
		t.Fatal("mismatched dst length should fail")
	}
	short := [][]float64{readings[0][:3]}
	if _, err := r.ReconstructBatch(short, 0); err == nil {
		t.Fatal("short reading vector should fail")
	}
	if err := r.ReconstructBatchInto(nil, nil, 0); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestReconstructIntoZeroAlloc pins the acceptance criterion: the pooled
// steady-state path allocates nothing per snapshot.
func TestReconstructIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately randomizes its fast path when race.Enabled
		// (poolRaceHat dropping ~25% of puts), so AllocsPerRun occasionally
		// observes a pool miss under -race. The pin is exact without -race;
		// CI's bench-smoke job re-runs this test race-free to keep it
		// enforced, and plain local `go test` runs it too.
		t.Skip("pool-backed zero-alloc pin is not meaningful under the race detector")
	}
	r, readings, _ := batchFixture(t)
	dst := make([]float64, testBasis.N())
	// Warm the pool.
	if err := r.ReconstructInto(dst, readings[0]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := r.ReconstructInto(dst, readings[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("ReconstructInto allocates %v per call; want 0", allocs)
	}
}

func TestReconstructConcurrentShared(t *testing.T) {
	// Many goroutines hammer one shared reconstructor; results must match the
	// sequential answers exactly (run under -race in CI).
	r, readings, want := batchFixture(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			dst := make([]float64, testBasis.N())
			for rep := 0; rep < 50; rep++ {
				i := (g + rep) % len(readings)
				if err := r.ReconstructInto(dst, readings[i]); err != nil {
					done <- err
					return
				}
				for c := range dst {
					if dst[c] != want[i][c] {
						done <- errors.New("concurrent result diverged")
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
