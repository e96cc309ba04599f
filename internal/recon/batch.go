package recon

import (
	"fmt"

	"repro/internal/mat"
)

// Batch reconstruction: many independent snapshots, each one application of
// the folded Theorem 1 operator. A batch of at least mat.ParallelThreshold
// multiply-adds fans out over a worker pool that shares the operator
// read-only, so it parallelizes embarrassingly — contiguous blocks of
// snapshots are sharded across workers via mat.ParallelChunks. A smaller
// one, such as a served request, runs on the calling goroutine.

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

// ReconstructBatch estimates one full map per reading vector, fanning a
// large batch out over at most workers goroutines (0 = NumCPU). It
// allocates the output; use ReconstructBatchInto on a reused buffer for
// the allocation-free path.
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
// (each length N) as blocked GEMMs against the folded operator. A batch of
// fewer than mat.ParallelThreshold multiply-adds (batch·N·M) is one GEMM on
// the calling goroutine, whatever workers says; a larger one is sharded
// over at most workers goroutines (0 = NumCPU), each shard one GEMM over
// whole blocks of eight snapshots. The maps are the same bits either way.
// Scratch-free and allocation-free in the steady state. Every snapshot is
// validated before any is reconstructed, and the first offending one is
// reported as a *BatchError.
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
	if len(readings)*n*len(r.sensors) < mat.ParallelThreshold {
		mat.MulVecBiasBatchInto(dst, r.opBias, r.op, readings)
		return nil
	}
	// Shards split on the kernels' 8-snapshot blocks, so only the batch's
	// last shard can end in the slower 4-snapshot and per-snapshot tails.
	blocks := (len(readings) + 7) / 8
	mat.ParallelChunks(blocks, workers, func(lo, hi int) {
		lo, hi = 8*lo, min(8*hi, len(readings))
		mat.MulVecBiasBatchInto(dst[lo:hi], r.opBias, r.op, readings[lo:hi])
	})
	return nil
}
