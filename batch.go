package eigenmaps

import "runtime"

// This file is the concurrent batched monitoring engine: Monitor gains
// batch and streaming estimation entry points that fan snapshots out over a
// worker pool while sharing the one precomputed reconstruction operator.
// A Monitor is safe for concurrent use — the operator is read-only, so the
// steady-state hot path allocates nothing per snapshot.

// BatchOptions tune the batched/streaming estimation paths.
type BatchOptions struct {
	// Workers caps the goroutines reconstructing concurrently.
	// 0 (the default) means one per CPU. A batch of fewer than
	// 2²² multiply-adds (batch·N·M) runs on the calling goroutine
	// whatever Workers says.
	Workers int
}

// N returns the number of cells per estimated map — the length EstimateInto
// expects dst to have.
func (mn *Monitor) N() int { return mn.mon.N() }

// EstimateInto is the allocation-free form of Estimate: the reconstructed
// map is written into dst (length N). After a warm-up call the steady state
// performs zero heap allocations, which keeps a high-rate monitoring loop
// free of GC pressure.
func (mn *Monitor) EstimateInto(dst, readings []float64) error {
	return mn.mon.EstimateInto(dst, readings)
}

// EstimateBatch reconstructs one full map per reading vector as blocked
// GEMMs against the precomputed operator, fanning a large batch out across
// a worker pool. Order is preserved: out[i] is the estimate for
// readings[i]. A non-finite or out-of-range reading (beyond ±1e6 °C) or a
// wrong-length vector fails the batch with an error identifying the
// offending snapshot.
func (mn *Monitor) EstimateBatch(readings [][]float64, opt BatchOptions) ([][]float64, error) {
	return mn.mon.EstimateBatch(readings, opt.Workers)
}

// StreamResult is one snapshot's outcome on the streaming path.
type StreamResult struct {
	// Index is the snapshot's arrival position (0-based) — results are NOT
	// reordered across workers, so consumers needing order should use it.
	Index int
	// Map is the reconstructed thermal map (length N); nil if Err != nil.
	Map []float64
	// Err reports a rejected snapshot (e.g. NaN readings). The stream keeps
	// going: one bad snapshot does not poison the rest.
	Err error
}

// EstimateStream spawns a worker pool that reconstructs reading vectors as
// they arrive on in, and returns the results channel. The channel is closed
// once in is closed and all pending snapshots are done. Unlike a failed
// batch, a rejected snapshot is reported in its StreamResult and the stream
// continues — a daemon serving many clients must not let one bad request
// stall the rest.
//
// The consumer MUST drain the returned channel until it is closed:
// abandoning it mid-stream blocks the workers (and whoever feeds in)
// forever. To stop early, close or stop feeding in, then keep receiving
// until the channel closes.
func (mn *Monitor) EstimateStream(in <-chan []float64, opt BatchOptions) <-chan StreamResult {
	n := mn.N()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	out := make(chan StreamResult, workers)
	// A single dispatcher assigns arrival indices, then workers race on the
	// shared task channel.
	type task struct {
		idx      int
		readings []float64
	}
	tasks := make(chan task, workers)
	go func() {
		idx := 0
		for readings := range in {
			tasks <- task{idx: idx, readings: readings}
			idx++
		}
		close(tasks)
	}()
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for t := range tasks {
				dst := make([]float64, n)
				if err := mn.mon.EstimateInto(dst, t.readings); err != nil {
					out <- StreamResult{Index: t.idx, Err: err}
					continue
				}
				out <- StreamResult{Index: t.idx, Map: dst}
			}
		}()
	}
	go func() {
		for w := 0; w < workers; w++ {
			<-done
		}
		close(out)
	}()
	return out
}
