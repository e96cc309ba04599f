package mat

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestMulTAWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	a := RandomMatrix(300, 120, rng)
	b := RandomMatrix(300, 130, rng)
	want := MulTA(a, b)
	for _, workers := range []int{0, 1, 2, 7} {
		if !MulTAWorkers(a, b, workers).Equal(want, 0) {
			t.Fatalf("MulTAWorkers(%d) not bit-identical to serial", workers)
		}
	}
}

func TestRowGramWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	a := RandomMatrix(260, 180, rng)
	want := RowGram(a)
	for _, workers := range []int{0, 1, 2, 7} {
		got := RowGramWorkers(a, workers)
		if !got.Equal(want, 0) {
			t.Fatalf("RowGramWorkers(%d) not bit-identical to serial", workers)
		}
		if !got.IsSymmetric(0) {
			t.Fatalf("RowGramWorkers(%d) result not symmetric", workers)
		}
	}
}

func TestSnapshotPODWorkersMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	x, _ := syntheticData(90, 30, []float64{60, 12, 3, 0.7}, rng)
	vals, vecs, err := SnapshotPOD(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 5} {
		v, e, err := SnapshotPODWorkers(x, 4, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if v[i] != vals[i] {
				t.Fatalf("workers=%d: eigenvalue %d differs", workers, i)
			}
		}
		if !e.Equal(vecs, 0) {
			t.Fatalf("workers=%d: eigenvectors differ from sequential", workers)
		}
	}
}

func TestSnapshotPODOrthonormalNearRank(t *testing.T) {
	// The MGS re-orthonormalization in the lift must keep the block
	// orthonormal even with a fast-decaying spectrum (λ ratio 1e8).
	rng := rand.New(rand.NewSource(89))
	x, _ := syntheticData(50, 40, []float64{1e4, 1, 1e-2, 1e-4}, rng)
	_, vecs, err := SnapshotPOD(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !Gram(vecs).Equal(Identity(4), 1e-10) {
		t.Fatal("lifted block lost orthonormality")
	}
}

func TestParallelRowsCoversRange(t *testing.T) {
	// The default worker count (0 = NumCPU) splits rows into disjoint,
	// covering chunks.
	seen := make([]bool, 103)
	ParallelChunks(len(seen), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i] = true // ranges are disjoint, so no race
		}
	})
	for i, ok := range seen {
		if !ok {
			t.Fatalf("row %d not visited", i)
		}
	}
	// Degenerate sizes.
	ParallelChunks(0, 0, func(lo, hi int) { t.Fatal("fn called for n=0") })
	called := false
	ParallelChunks(1, 0, func(lo, hi int) {
		if lo != 0 || hi != 1 {
			t.Fatalf("bad range [%d,%d)", lo, hi)
		}
		called = true
	})
	if !called {
		t.Fatal("fn not called for n=1")
	}
}

func TestParallelChunksCoversRange(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 37
		hit := make([]int32, n)
		ParallelChunks(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hit[i], 1)
			}
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
	ParallelChunks(0, 4, func(lo, hi int) { t.Fatal("fn must not run for n=0") })
}
