package recon

import (
	"fmt"

	"repro/internal/mat"
)

// Batch reconstruction: many independent snapshots fanned out over a worker
// pool. Each snapshot is one application of the folded Theorem 1 operator,
// which every worker shares read-only, so the batch parallelizes
// embarrassingly — contiguous blocks of snapshots are sharded across
// workers via mat.ParallelChunks.

// BatchError reports the first snapshot of a batch that failed validation.
// The batch is validated before any snapshot is reconstructed, so on error
// no output has been written.
type BatchError struct {
	Index int // snapshot position within the batch
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("recon: snapshot %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying cause (e.g. ErrBadReading) to errors.Is.
func (e *BatchError) Unwrap() error { return e.Err }

// ReconstructBatch estimates one full map per reading vector, fanning the
// batch out over workers goroutines (0 = NumCPU). It allocates the output;
// use ReconstructBatchInto on a reused buffer for the allocation-free path.
func (r *Reconstructor) ReconstructBatch(readings [][]float64, workers int) ([][]float64, error) {
	out := make([][]float64, len(readings))
	n := r.b.N()
	backing := make([]float64, len(readings)*n)
	for i := range out {
		out[i] = backing[i*n : (i+1)*n]
	}
	if err := r.ReconstructBatchInto(out, readings, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// ReconstructBatchInto writes the estimate for readings[i] into dst[i]
// (each length N): each worker's shard runs as one blocked GEMM against the
// folded operator (four snapshots per operator-row load), and shards hold
// whole blocks of four snapshots. Scratch-free and allocation-free in the
// steady state. Every snapshot is validated before any is reconstructed, and
// the first offending one is reported as a *BatchError.
func (r *Reconstructor) ReconstructBatchInto(dst [][]float64, readings [][]float64, workers int) error {
	if len(dst) != len(readings) {
		return fmt.Errorf("recon: %d outputs for %d snapshots", len(dst), len(readings))
	}
	// Validate everything up front so a bad snapshot in one shard cannot race
	// a half-written batch: the GEMM itself cannot fail per snapshot.
	n := r.b.N()
	for i, xS := range readings {
		if len(dst[i]) != n {
			return &BatchError{Index: i, Err: fmt.Errorf("recon: destination length %d != N %d", len(dst[i]), n)}
		}
		if err := r.checkReadings(xS); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	// Shards split on the kernel's 4-snapshot blocks, so only the batch's
	// last shard can end in the kernel's slower per-snapshot tail.
	blocks := (len(readings) + 3) / 4
	mat.ParallelChunks(blocks, workers, func(lo, hi int) {
		lo, hi = 4*lo, min(4*hi, len(readings))
		mat.MulVecBiasBatchInto(dst[lo:hi], r.opBias, r.op, readings[lo:hi])
	})
	return nil
}
