package eigenmaps

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/store"
)

// Monitor persistence: the expensive design-time pipeline (ensemble
// simulation, PCA training, greedy placement, the least-squares
// factorization) runs once; Save captures its full product — basis, sensor
// placement and the cached QR factorization — in a versioned, checksummed
// binary format, and LoadMonitor rebuilds a monitor whose EstimateInto
// output is bit-identical to the saving monitor's (the solve runs over the
// exact same float64 values in the same order). Loading is orders of
// magnitude faster than retraining — see BenchmarkMonitorSave/Load and the
// DESIGN.md "Monitor store format" section.

// StoreError is the typed error every monitor load failure unwraps to.
// Inspect the category with errors.Is against the sentinels below, or
// errors.As for the Kind and detail.
type StoreError = store.Error

// Sentinels (errors.Is targets) for the monitor store failure categories.
var (
	// ErrStoreBadMagic: the bytes are not a monitor store file.
	ErrStoreBadMagic = store.ErrBadMagic
	// ErrStoreVersion: the file was written by another format version — a
	// future one this build is too old for, or the retired versions 1 and 2.
	ErrStoreVersion = store.ErrUnknownVersion
	// ErrStoreTruncated: the file ends before its declared length.
	ErrStoreTruncated = store.ErrTruncated
	// ErrStoreChecksum: the envelope is intact but the payload bits are
	// damaged.
	ErrStoreChecksum = store.ErrChecksum
	// ErrStoreInvalid: the payload parses but describes an impossible
	// monitor (e.g. a sensor outside the basis grid, or metadata claiming a
	// different grid than the basis carries — a cross-floorplan record).
	ErrStoreInvalid = store.ErrInvalid
)

// storeRecord bundles the monitor's full serving state for the codec,
// including the folded reconstruction operator, so a loaded monitor skips
// even the deterministic re-fold.
func (mn *Monitor) storeRecord() *store.Record {
	rec := &store.Record{Meta: store.Meta{GridW: mn.grid.W, GridH: mn.grid.H}}
	rec.SetMonitor(mn.mon.Reconstructor())
	return rec
}

// Save writes the monitor in the library's versioned binary store format.
func (mn *Monitor) Save(w io.Writer) error {
	return store.Encode(w, mn.storeRecord())
}

// SaveFile writes the monitor to path atomically (temporary file + rename),
// so a crash mid-save cannot leave a torn file behind.
func (mn *Monitor) SaveFile(path string) error {
	return store.SaveFile(path, mn.storeRecord())
}

// LoadMonitor reads a monitor written by Save. The loaded monitor serves
// estimates bit-identical to the monitor that was saved, with none of the
// training pipeline re-run. Failures are *StoreError values (see the
// sentinels above); corrupt or hostile bytes never panic.
func LoadMonitor(r io.Reader) (*Monitor, error) {
	rec, err := store.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("eigenmaps: %w", err)
	}
	return monitorFromRecord(rec)
}

// LoadMonitorFile reads a monitor from path.
func LoadMonitorFile(path string) (*Monitor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadMonitor(f)
}

func monitorFromRecord(rec *store.Record) (*Monitor, error) {
	r, err := rec.RestoreMonitor()
	if err != nil {
		return nil, fmt.Errorf("eigenmaps: %w", err)
	}
	return &Monitor{mon: core.RestoredMonitor(r), grid: Grid{W: rec.Basis.Grid.W, H: rec.Basis.Grid.H}}, nil
}
