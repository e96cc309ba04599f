package recon

import (
	"fmt"
	"sync"

	"repro/internal/mat"
)

// Batch reconstruction: many independent snapshots fanned out over a worker
// pool. Each snapshot is one least-squares solve (Theorem 1), and solves
// share the cached QR factorization read-only, so the batch parallelizes
// embarrassingly — contiguous snapshot ranges are sharded across workers via
// mat.ParallelChunks and each worker draws its scratch from the
// reconstructor's pool.

// BatchError reports the first snapshot of a batch that failed validation or
// solving. Earlier snapshots may already have been written to the output;
// snapshots after the failed one are in an unspecified state.
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
// (each length N) using the default operator arm: each worker's shard runs
// as one blocked GEMM (four snapshots per operator-row load), and shards
// hold whole blocks of four snapshots. Scratch-free and allocation-free in
// the steady state. On failure the first offending snapshot is reported as
// a *BatchError; remaining snapshots in other shards may still have been
// reconstructed.
func (r *Reconstructor) ReconstructBatchInto(dst [][]float64, readings [][]float64, workers int) error {
	return r.ReconstructBatchArmInto(dst, readings, workers, ArmOperator)
}

// ReconstructBatchArmInto is ReconstructBatchInto with an explicit
// implementation arm (see Arm).
func (r *Reconstructor) ReconstructBatchArmInto(dst [][]float64, readings [][]float64, workers int, arm Arm) error {
	if len(dst) != len(readings) {
		return fmt.Errorf("recon: %d outputs for %d snapshots", len(dst), len(readings))
	}
	if arm != ArmOperator && arm != ArmQR {
		return fmt.Errorf("%w: %d", ErrBadArm, int(arm))
	}
	if len(readings) == 0 {
		return nil
	}
	// Validate everything up front so a bad snapshot in one shard cannot race
	// a half-written batch: the common case (all valid) then runs the workers
	// error-free.
	n := r.b.N()
	for i, xS := range readings {
		if len(dst[i]) != n {
			return &BatchError{Index: i, Err: fmt.Errorf("recon: destination length %d != N %d", len(dst[i]), n)}
		}
		if err := r.checkReadings(xS); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	if arm == ArmOperator {
		// Readings are already validated, and the operator arm cannot fail
		// per-snapshot: each shard is one blocked GEMM. Shards split on the
		// kernel's 4-snapshot blocks, so only the batch's last shard can end
		// in the kernel's slower per-snapshot tail.
		blocks := (len(readings) + 3) / 4
		mat.ParallelChunks(blocks, workers, func(lo, hi int) {
			lo, hi = 4*lo, min(4*hi, len(readings))
			mat.MulVecBiasBatchInto(dst[lo:hi], r.opBias, r.op, readings[lo:hi])
		})
		return nil
	}
	var firstErr *BatchError
	var mu sync.Mutex
	mat.ParallelChunks(len(readings), workers, func(lo, hi int) {
		sc := r.getScratch()
		defer r.scratch.Put(sc)
		for i := lo; i < hi; i++ {
			if err := r.coefficientsInto(sc.alpha, readings[i], sc); err != nil {
				mu.Lock()
				if firstErr == nil || i < firstErr.Index {
					firstErr = &BatchError{Index: i, Err: err}
				}
				mu.Unlock()
				return
			}
			r.b.SynthesizeInto(dst[i], sc.alpha)
		}
	})
	if firstErr != nil {
		return firstErr
	}
	return nil
}
