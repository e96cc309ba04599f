// Package store is the durable serving layer's codec: a versioned,
// checksummed binary format that round-trips everything a trained monitor
// needs to serve — the floorplan, the PCA basis, the per-cell training
// energy, the sensor placement, the cached least-squares (QR) factorization,
// the folded reconstruction operator and the training key — so the
// expensive design-time pipeline (ensemble simulation, PCA, greedy
// placement) runs once and its product is reloaded in microseconds instead
// of recomputed in seconds. A record without the monitor section is a
// trained model: the daemon's model files and the library's Model.Save use
// it.
//
// # Format
//
// An envelope frames a single payload:
//
//	magic   "EMST"            4 bytes
//	version uint32 LE         format version (currently 3)
//	length  uint64 LE         payload byte count
//	payload length bytes
//	crc     uint32 LE         IEEE CRC-32 of the payload
//
// The payload is a fixed sequence of sections: a strict-decoded JSON
// metadata blob (the training key and serving options), a presence bitmap,
// then the optional floorplan, the basis (in the basis package's own
// format, length-prefixed), the optional energy map, the optional monitor
// section (K, sensors, packed QR factors), the folded reconstruction
// operator (N×M matrix plus length-N affine term) that must accompany the
// monitor section, and the optional drift block — the monitor's training
// residual calibration (the thresholds its drift detector alarms against)
// and its adaptation lineage (parent train-key, adaptation generation, and
// the original client-facing sensor list, which differs from the serving
// sensors once a faulty sensor has been excluded). A record without the
// drift block serves uncalibrated. Version 3 is the only version this
// build reads or writes: version 1 and 2 files (no operator or no drift
// section) fail with ErrUnknownVersion.
//
// # Decoding contract
//
// Decode is strict and never panics on hostile bytes. Every failure is a
// *store.Error whose Kind separates the cases callers handle differently,
// with errors.Is sentinels for each: ErrBadMagic (not a store file),
// ErrUnknownVersion (written by another format version: a future one, or
// the retired versions 1 and 2), ErrTruncated (the envelope ends early),
// ErrChecksum (envelope intact but the payload bits are damaged) and
// ErrInvalid (the payload parses but describes an impossible record, e.g. a
// sensor index outside the basis grid, metadata claiming a different grid
// than the basis carries — a cross-floorplan load — or a count or shape
// larger than the bytes left in the payload, which is checked before
// anything is allocated).
//
// Floats round-trip bit-exactly (fixed-width little-endian), which is what
// makes a loaded monitor's estimates bit-identical to the saving monitor's.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/basis"
	"repro/internal/drift"
	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/recon"
)

const (
	magic = "EMST"
	// Version is the format version Encode writes and the only one Decode
	// reads.
	Version = 3
	// maxPayload caps the envelope length field so a corrupt header cannot
	// drive a large allocation before the checksum is ever verified (the
	// payload is sized and read eagerly). The largest realistic record —
	// paper-scale grid (N = 3360), KMax = 40 basis plus QR — is ~2 MB;
	// 64 MB leaves room for much larger dies while keeping the worst case
	// of a bit-flipped length field harmless.
	maxPayload = 1 << 26
)

// Kind classifies a decode failure.
type Kind int

// Decode failure kinds.
const (
	// KindIO is an underlying reader/writer error (not a format problem).
	KindIO Kind = iota
	// KindBadMagic: the bytes are not a monitor store file at all.
	KindBadMagic
	// KindUnknownVersion: written by another format version.
	KindUnknownVersion
	// KindTruncated: the envelope ends before its declared length.
	KindTruncated
	// KindChecksum: the payload bits fail the CRC.
	KindChecksum
	// KindInvalid: checksum-valid bytes describing an impossible record.
	KindInvalid
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindIO:
		return "io"
	case KindBadMagic:
		return "bad-magic"
	case KindUnknownVersion:
		return "unknown-version"
	case KindTruncated:
		return "truncated"
	case KindChecksum:
		return "checksum"
	case KindInvalid:
		return "invalid"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Error is the typed error for every codec failure. Match the category with
// errors.Is against the sentinel for its Kind, or errors.As for the detail.
type Error struct {
	Kind   Kind
	Detail string
	Err    error // underlying cause, if any
}

// Error implements error.
func (e *Error) Error() string {
	s := "store: " + e.Kind.String()
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying cause.
func (e *Error) Unwrap() error { return e.Err }

// Is matches the sentinel of the error's Kind.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrBadMagic:
		return e.Kind == KindBadMagic
	case ErrUnknownVersion:
		return e.Kind == KindUnknownVersion
	case ErrTruncated:
		return e.Kind == KindTruncated
	case ErrChecksum:
		return e.Kind == KindChecksum
	case ErrInvalid:
		return e.Kind == KindInvalid
	}
	return false
}

// Sentinels for errors.Is; Decode always returns a *Error carrying one of
// these kinds (or KindIO for reader failures).
var (
	ErrBadMagic       = errors.New("store: not a monitor store file")
	ErrUnknownVersion = errors.New("store: unknown format version")
	ErrTruncated      = errors.New("store: truncated file")
	ErrChecksum       = errors.New("store: checksum mismatch")
	ErrInvalid        = errors.New("store: invalid record")
)

func errf(k Kind, format string, args ...any) *Error {
	return &Error{Kind: k, Detail: fmt.Sprintf(format, args...)}
}

// Meta is the version-stable metadata of a record: the identity of the
// training run (the daemon's cache key), the workload and power
// configuration it was generated with, and the monitor's serving options.
// It is JSON in the payload so records keep decoding as fields are
// deprecated; unknown fields are rejected (strict decode), so a file from a
// schema that *added* fields fails loudly instead of silently dropping
// state.
type Meta struct {
	// Training-run identity (mirrors the daemon's train key).
	Floorplan string `json:"floorplan,omitempty"`
	Cores     int    `json:"cores,omitempty"`
	Caches    int    `json:"caches,omitempty"`
	MeshW     int    `json:"mesh_w,omitempty"`
	MeshH     int    `json:"mesh_h,omitempty"`
	GridW     int    `json:"grid_w,omitempty"`
	GridH     int    `json:"grid_h,omitempty"`
	Snapshots int    `json:"snapshots,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	KMax      int    `json:"kmax,omitempty"`

	// Solver is ignored. Records written while the simulator still had a
	// second solver arm carry "direct" (or "cg") here; the field stays so
	// that strict decoding keeps accepting them, and nothing sets it now.
	Solver string `json:"solver,omitempty"`

	// Workload and power configuration of the training ensemble (the
	// ensemble itself is never serialized).
	Workloads    []string        `json:"workloads,omitempty"`
	WorkloadSpec json.RawMessage `json:"workload_spec,omitempty"`
	LoadCoupling float64         `json:"load_coupling,omitempty"`

	// Serving options of the persisted monitor.
	MonitorID string  `json:"monitor_id,omitempty"`
	Tracking  bool    `json:"tracking,omitempty"`
	Rho       float64 `json:"rho,omitempty"`
}

// Record is one serializable bundle. Basis is required; Floorplan and
// Energy are optional (a facade monitor has neither); the monitor section —
// Sensors, K, QR, Op and OpBias together — is optional so the same format
// persists both trained models (no placement yet) and live monitors.
type Record struct {
	Meta      Meta
	Basis     *basis.Basis
	Floorplan *floorplan.Floorplan
	Energy    []float64

	Sensors []int
	K       int
	QR      *mat.QR

	// Op/OpBias are the folded reconstruction operator (N×M) and its affine
	// term (length N): x̃ = OpBias + Op·x_S. Part of the monitor section.
	Op     *mat.Matrix
	OpBias []float64

	// Drift is the drift-calibration and adaptation-lineage block. Optional;
	// only valid alongside the monitor section. A record without it serves
	// with drift detection disabled.
	Drift *DriftInfo
}

// DriftInfo persists what the serving layer's drift detector needs to resume
// exactly where the saving daemon left off: the monitor's training residual
// distribution (its alarm thresholds) and its adaptation lineage.
type DriftInfo struct {
	// Calibration holds the residual moments over the ensemble the monitor
	// was (re)calibrated on. Its per-sensor moments align with the record's
	// *serving* sensor list (Record.Sensors).
	drift.Calibration

	// ParentKey is the train-key hash of the design-time ancestor this
	// monitor adapted away from (empty at generation 0).
	ParentKey string
	// Generation counts hot-swap adaptations since design-time training.
	Generation int
	// OrigSensors is the client-facing sensor list the monitor was created
	// with. It equals Record.Sensors until a faulty sensor is excluded, after
	// which Record.Sensors (and the QR/operator shapes) cover only the
	// surviving subset while clients keep sending len(OrigSensors) readings.
	// Nil means "same as Record.Sensors".
	OrigSensors []int
}

// HasMonitor reports whether the record carries the monitor section.
func (rec *Record) HasMonitor() bool { return rec.QR != nil }

// SetMonitor fills the record's basis and monitor section from r: its
// sensors, K, cached factorization and folded operator.
func (rec *Record) SetMonitor(r *recon.Reconstructor) {
	rec.Basis = r.Basis()
	rec.Sensors, rec.K, rec.QR = r.Sensors(), r.K(), r.QR()
	rec.Op, rec.OpBias = r.Operator()
}

// RestoreMonitor rebuilds the reconstructor SetMonitor saved. Nothing is
// refactored or refolded, so it estimates bit-identically to the saved one.
// A record without the monitor section (a model file) fails with a
// KindInvalid *Error.
func (rec *Record) RestoreMonitor() (*recon.Reconstructor, error) {
	if !rec.HasMonitor() {
		return nil, errf(KindInvalid, "record has no monitor section (model-only store file)")
	}
	r, err := recon.RestoreWithOperator(rec.Basis, rec.K, rec.Sensors, rec.QR, rec.Op, rec.OpBias)
	if err != nil {
		return nil, &Error{Kind: KindInvalid, Detail: "restoring monitor", Err: err}
	}
	return r, nil
}

// Section-presence bits in the payload's flags word. flagMonitor and
// flagOperator are always set together.
const (
	flagFloorplan = 1 << iota
	flagEnergy
	flagMonitor
	flagOperator
	flagDrift
)

// Encode writes rec in the store format. Only writer failures can error:
// every record that the in-memory types can represent encodes.
func Encode(w io.Writer, rec *Record) error {
	if rec.Basis == nil {
		return errf(KindInvalid, "record has no basis")
	}
	hasAny := rec.Sensors != nil || rec.QR != nil || rec.Op != nil || rec.OpBias != nil
	hasAll := rec.Sensors != nil && rec.QR != nil && rec.K > 0 && rec.Op != nil && rec.OpBias != nil
	if hasAny && !hasAll {
		return errf(KindInvalid, "partial monitor section (need sensors, K, QR, operator and bias together)")
	}
	if rec.Op != nil && rec.Op.Rows() != len(rec.OpBias) {
		return errf(KindInvalid, "operator bias length %d for %d rows", len(rec.OpBias), rec.Op.Rows())
	}
	if rec.Drift != nil {
		if rec.QR == nil {
			return errf(KindInvalid, "drift section without monitor section")
		}
		if err := validateDrift(rec); err != nil {
			return err
		}
	}
	var payload bytes.Buffer
	metaJSON, err := json.Marshal(rec.Meta)
	if err != nil {
		return &Error{Kind: KindInvalid, Detail: "encoding metadata", Err: err}
	}
	putU32(&payload, uint32(len(metaJSON)))
	payload.Write(metaJSON)

	var flags uint32
	if rec.Floorplan != nil {
		flags |= flagFloorplan
	}
	// An empty energy slice means "not recorded", like nil: encoding it as
	// a zero-length section would produce bytes Decode rejects (energy, when
	// present, must cover all N cells).
	if len(rec.Energy) > 0 {
		flags |= flagEnergy
	}
	if rec.QR != nil {
		flags |= flagMonitor | flagOperator
	}
	if rec.Drift != nil {
		flags |= flagDrift
	}
	putU32(&payload, flags)

	if rec.Floorplan != nil {
		putString(&payload, rec.Floorplan.Name)
		putU32(&payload, uint32(len(rec.Floorplan.Blocks)))
		for _, b := range rec.Floorplan.Blocks {
			putString(&payload, b.Name)
			putU32(&payload, uint32(b.Kind))
			putFloats(&payload, []float64{b.X, b.Y, b.W, b.H})
		}
	}

	var basisBuf bytes.Buffer
	if err := rec.Basis.Save(&basisBuf); err != nil {
		return &Error{Kind: KindInvalid, Detail: "encoding basis", Err: err}
	}
	putU64(&payload, uint64(basisBuf.Len()))
	payload.Write(basisBuf.Bytes())

	if len(rec.Energy) > 0 {
		putU32(&payload, uint32(len(rec.Energy)))
		putFloats(&payload, rec.Energy)
	}

	if rec.QR != nil {
		putU32(&payload, uint32(rec.K))
		putU32(&payload, uint32(len(rec.Sensors)))
		for _, s := range rec.Sensors {
			putU64(&payload, uint64(int64(s)))
		}
		packed, tau := rec.QR.Factors()
		qm, qn := packed.Dims()
		putU32(&payload, uint32(qm))
		putU32(&payload, uint32(qn))
		putFloats(&payload, packed.Data())
		putFloats(&payload, tau)
	}

	if rec.Op != nil {
		rows, cols := rec.Op.Dims()
		putU32(&payload, uint32(rows))
		putU32(&payload, uint32(cols))
		putFloats(&payload, rec.Op.Data())
		putFloats(&payload, rec.OpBias)
	}

	if rec.Drift != nil {
		d := rec.Drift
		putFloats(&payload, []float64{d.Mean, d.Std})
		putU32(&payload, uint32(len(d.SensorMean)))
		putFloats(&payload, d.SensorMean)
		putFloats(&payload, d.SensorStd)
		putString(&payload, d.ParentKey)
		putU32(&payload, uint32(d.Generation))
		putU32(&payload, uint32(len(d.OrigSensors)))
		for _, s := range d.OrigSensors {
			putU64(&payload, uint64(int64(s)))
		}
	}

	return writeEnvelope(w, magic, Version, payload.Bytes())
}

// writeEnvelope frames payload as magic, version, length, payload, CRC-32.
func writeEnvelope(w io.Writer, mg string, version uint32, payload []byte) error {
	head := make([]byte, 0, 16)
	head = append(head, mg...)
	head = binary.LittleEndian.AppendUint32(head, version)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(payload)))
	if _, err := w.Write(head); err != nil {
		return &Error{Kind: KindIO, Detail: "writing header", Err: err}
	}
	if _, err := w.Write(payload); err != nil {
		return &Error{Kind: KindIO, Detail: "writing payload", Err: err}
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload))); err != nil {
		return &Error{Kind: KindIO, Detail: "writing checksum", Err: err}
	}
	return nil
}

// Decode reads one record. See the package comment for the error contract;
// hostile bytes yield a typed *Error, never a panic.
func Decode(r io.Reader) (*Record, error) {
	payload, err := readEnvelope(r, magic, Version)
	if err != nil {
		return nil, err
	}
	return parsePayload(payload)
}

// readEnvelope reads one frame written by writeEnvelope and returns its
// checksum-verified payload.
func readEnvelope(r io.Reader, mg string, version uint32) ([]byte, error) {
	readFull := func(buf []byte, what string) error {
		if _, err := io.ReadFull(r, buf); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return errf(KindTruncated, "%s file: %s cut short", mg, what)
			}
			return &Error{Kind: KindIO, Detail: "reading " + what, Err: err}
		}
		return nil
	}
	head := make([]byte, 16)
	if err := readFull(head[:4], "magic"); err != nil {
		return nil, err
	}
	if string(head[:4]) != mg {
		return nil, errf(KindBadMagic, "magic %q, want %q", head[:4], mg)
	}
	if err := readFull(head[4:], "header"); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != version {
		return nil, errf(KindUnknownVersion, "%s version %d (this build reads %d)", mg, v, version)
	}
	length := binary.LittleEndian.Uint64(head[8:16])
	if length > maxPayload {
		return nil, errf(KindInvalid, "payload length %d exceeds cap %d", length, int64(maxPayload))
	}
	payload := make([]byte, length+4)
	if err := readFull(payload, "payload"); err != nil {
		return nil, err
	}
	payload, crcBuf := payload[:length], payload[length:]
	want := binary.LittleEndian.Uint32(crcBuf)
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, errf(KindChecksum, "crc32 %08x, header says %08x", got, want)
	}
	return payload, nil
}

// parsePayload parses a checksum-verified payload. Structural overruns here
// mean the writer and reader disagree about the format (or the file was
// forged around its checksum): KindInvalid, not KindTruncated.
func parsePayload(payload []byte) (*Record, error) {
	p := &reader{buf: payload}
	rec := &Record{}

	metaLen, err := p.u32("meta length")
	if err != nil {
		return nil, err
	}
	metaJSON, err := p.bytes(uint64(metaLen), "metadata")
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(metaJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec.Meta); err != nil {
		return nil, &Error{Kind: KindInvalid, Detail: "metadata", Err: err}
	}

	flags, err := p.u32("flags")
	if err != nil {
		return nil, err
	}
	if flags&^uint32(flagFloorplan|flagEnergy|flagMonitor|flagOperator|flagDrift) != 0 {
		return nil, errf(KindInvalid, "unknown section flags %#x", flags)
	}
	monitor := flags&flagMonitor != 0
	if monitor != (flags&flagOperator != 0) {
		return nil, errf(KindInvalid, "monitor and operator sections must come together (flags %#x)", flags)
	}
	if flags&flagDrift != 0 && !monitor {
		return nil, errf(KindInvalid, "drift section without monitor section")
	}

	if flags&flagFloorplan != 0 {
		if rec.Floorplan, err = p.floorplan(); err != nil {
			return nil, err
		}
	}

	basisLen, err := p.u64("basis length")
	if err != nil {
		return nil, err
	}
	basisBlob, err := p.bytes(basisLen, "basis")
	if err != nil {
		return nil, err
	}
	if rec.Basis, err = basis.Decode(basisBlob); err != nil {
		return nil, &Error{Kind: KindInvalid, Detail: "basis", Err: err}
	}
	n := rec.Basis.N()

	if flags&flagEnergy != 0 {
		count, err := p.u32("energy length")
		if err != nil {
			return nil, err
		}
		if int64(count) != int64(n) {
			return nil, errf(KindInvalid, "energy length %d for N=%d", count, n)
		}
		if rec.Energy, err = p.floats(uint64(count), "energy"); err != nil {
			return nil, err
		}
	}

	if monitor {
		if err := p.monitorSection(rec); err != nil {
			return nil, err
		}
		if err := p.operatorSection(rec); err != nil {
			return nil, err
		}
	}

	if flags&flagDrift != 0 {
		if err := p.driftSection(rec); err != nil {
			return nil, err
		}
	}

	if p.off != len(p.buf) {
		return nil, errf(KindInvalid, "%d trailing payload bytes", len(p.buf)-p.off)
	}
	return rec, validate(rec)
}

// validate cross-checks the parsed sections against each other — the guard
// that turns a cross-floorplan (or otherwise mismatched) load into a typed
// error instead of a silently wrong monitor.
func validate(rec *Record) error {
	n := rec.Basis.N()
	g := rec.Basis.Grid
	if rec.Meta.GridW != 0 || rec.Meta.GridH != 0 {
		if rec.Meta.GridW != g.W || rec.Meta.GridH != g.H {
			return errf(KindInvalid,
				"cross-floorplan record: metadata grid %dx%d but basis grid %dx%d",
				rec.Meta.GridW, rec.Meta.GridH, g.W, g.H)
		}
	}
	if rec.Floorplan != nil {
		if err := rec.Floorplan.Validate(); err != nil {
			return &Error{Kind: KindInvalid, Detail: "floorplan", Err: err}
		}
		if rec.Meta.Floorplan != "" && rec.Meta.Floorplan != rec.Floorplan.Name {
			return errf(KindInvalid, "cross-floorplan record: metadata names %q but floorplan is %q",
				rec.Meta.Floorplan, rec.Floorplan.Name)
		}
	}
	if rec.Meta.KMax != 0 && rec.Basis.KMax() > rec.Meta.KMax {
		return errf(KindInvalid, "basis KMax %d exceeds metadata kmax %d", rec.Basis.KMax(), rec.Meta.KMax)
	}
	for _, e := range rec.Energy {
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
			return errf(KindInvalid, "non-finite or negative training energy")
		}
	}
	if rec.HasMonitor() {
		if rec.K < 1 || rec.K > rec.Basis.KMax() {
			return errf(KindInvalid, "K=%d outside [1,%d]", rec.K, rec.Basis.KMax())
		}
		if len(rec.Sensors) < rec.K {
			return errf(KindInvalid, "M=%d sensors for K=%d", len(rec.Sensors), rec.K)
		}
		seen := make(map[int]struct{}, len(rec.Sensors))
		for _, s := range rec.Sensors {
			if s < 0 || s >= n {
				return errf(KindInvalid, "sensor %d outside grid [0,%d) — cross-floorplan record?", s, n)
			}
			if _, dup := seen[s]; dup {
				return errf(KindInvalid, "duplicate sensor %d", s)
			}
			seen[s] = struct{}{}
		}
		if qm, qn := rec.QR.Dims(); qm != len(rec.Sensors) || qn != rec.K {
			return errf(KindInvalid, "factorization is %d×%d for M=%d K=%d", qm, qn, len(rec.Sensors), rec.K)
		}
		if rows, cols := rec.Op.Dims(); rows != n || cols != len(rec.Sensors) {
			return errf(KindInvalid, "operator is %d×%d for N=%d M=%d", rows, cols, n, len(rec.Sensors))
		}
		if rec.Drift != nil {
			if err := validateDrift(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateDrift cross-checks the drift block against the monitor section;
// the caller guarantees rec.Drift != nil and the monitor section is present.
func validateDrift(rec *Record) error {
	d := rec.Drift
	m := len(rec.Sensors)
	if len(d.SensorMean) != m || len(d.SensorStd) != m {
		return errf(KindInvalid, "drift sensor moments %d/%d for M=%d",
			len(d.SensorMean), len(d.SensorStd), m)
	}
	for _, v := range []float64{d.Mean, d.Std} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errf(KindInvalid, "non-finite drift calibration")
		}
	}
	if d.Std <= 0 {
		return errf(KindInvalid, "drift calibration std %v not positive", d.Std)
	}
	for i := range d.SensorMean {
		for _, v := range []float64{d.SensorMean[i], d.SensorStd[i]} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return errf(KindInvalid, "bad per-sensor drift moment at %d", i)
			}
		}
	}
	if d.Generation < 0 {
		return errf(KindInvalid, "drift generation %d negative", d.Generation)
	}
	if d.OrigSensors != nil {
		n := rec.Basis.N()
		seen := make(map[int]struct{}, len(d.OrigSensors))
		for _, s := range d.OrigSensors {
			if s < 0 || s >= n {
				return errf(KindInvalid, "original sensor %d outside grid [0,%d)", s, n)
			}
			if _, dup := seen[s]; dup {
				return errf(KindInvalid, "duplicate original sensor %d", s)
			}
			seen[s] = struct{}{}
		}
		// The serving sensors must be an ordered subset of the original list:
		// a surviving sensor's reading position in client traffic is its
		// position in OrigSensors.
		j := 0
		for _, s := range rec.Sensors {
			for j < len(d.OrigSensors) && d.OrigSensors[j] != s {
				j++
			}
			if j == len(d.OrigSensors) {
				return errf(KindInvalid, "serving sensor %d not an ordered subset of the original list", s)
			}
			j++
		}
	}
	return nil
}

// SaveFile writes rec to path atomically: the bytes go to a temporary file
// in the same directory which is fsynced and then renamed over path, so a
// crash mid-save leaves either the old record or none — never a torn file
// that a later Decode would have to reject. (Decode *would* reject it via
// the checksum; atomicity means the store never loses a good record to a
// failed overwrite.)
func SaveFile(path string, rec *Record) error {
	return saveAtomic(path, func(w io.Writer) error { return Encode(w, rec) })
}

// saveAtomic writes path through a fsynced temporary file and a rename.
func saveAtomic(path string, encode func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return &Error{Kind: KindIO, Detail: "creating temp file", Err: err}
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return &Error{Kind: KindIO, Detail: "syncing temp file", Err: err}
	}
	if err := tmp.Close(); err != nil {
		return &Error{Kind: KindIO, Detail: "closing temp file", Err: err}
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return &Error{Kind: KindIO, Detail: "renaming into place", Err: err}
	}
	return nil
}

// LoadFile reads a record written by SaveFile.
func LoadFile(path string) (*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &Error{Kind: KindIO, Detail: "opening store file", Err: err}
	}
	defer f.Close()
	return Decode(f)
}

// --- little-endian primitives ---

func putU32(w *bytes.Buffer, v uint32) { w.Write(binary.LittleEndian.AppendUint32(nil, v)) }
func putU64(w *bytes.Buffer, v uint64) { w.Write(binary.LittleEndian.AppendUint64(nil, v)) }

func putString(w *bytes.Buffer, s string) {
	putU32(w, uint32(len(s)))
	w.WriteString(s)
}

func putFloats(w *bytes.Buffer, fs []float64) {
	buf := make([]byte, 8*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
	}
	w.Write(buf)
}

// reader is a bounds-checked cursor over the verified payload. Every count
// and shape is checked against the bytes left, in 64-bit arithmetic, before
// anything is allocated for it.
type reader struct {
	buf []byte
	off int
}

func (p *reader) left() uint64 { return uint64(len(p.buf) - p.off) }

func (p *reader) bytes(n uint64, what string) ([]byte, error) {
	if n > p.left() {
		return nil, errf(KindInvalid, "%s: %d bytes at offset %d overruns %d-byte payload", what, n, p.off, len(p.buf))
	}
	out := p.buf[p.off : p.off+int(n)]
	p.off += int(n)
	return out, nil
}

func (p *reader) u32(what string) (uint32, error) {
	b, err := p.bytes(4, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (p *reader) u64(what string) (uint64, error) {
	b, err := p.bytes(8, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// count reads a u32 element count and bounds it by the payload bytes left,
// given that each element takes at least unit bytes.
func (p *reader) count(unit uint64, what string) (int, error) {
	n, err := p.u32(what)
	if err != nil {
		return 0, err
	}
	if uint64(n) > p.left()/unit {
		return 0, errf(KindInvalid, "%s %d overruns the %d payload bytes left", what, n, p.left())
	}
	return int(n), nil
}

func (p *reader) string(what string) (string, error) {
	n, err := p.u32(what + " length")
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", errf(KindInvalid, "%s: implausible length %d", what, n)
	}
	b, err := p.bytes(uint64(n), what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (p *reader) floats(n uint64, what string) ([]float64, error) {
	if n > p.left()/8 {
		return nil, errf(KindInvalid, "%s: %d floats overrun the %d payload bytes left", what, n, p.left())
	}
	b, _ := p.bytes(8*n, what) // cannot fail: bounded just above
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// matrix reads a rows×cols shape and its row-major floats.
func (p *reader) matrix(what string) (*mat.Matrix, error) {
	rows, err := p.u32(what + " rows")
	if err != nil {
		return nil, err
	}
	cols, err := p.u32(what + " cols")
	if err != nil {
		return nil, err
	}
	data, err := p.floats(uint64(rows)*uint64(cols), what)
	if err != nil {
		return nil, err
	}
	return mat.NewFromData(int(rows), int(cols), data), nil
}

// indices reads a count-prefixed list of u64 cell indices.
func (p *reader) indices(what string) ([]int, error) {
	m, err := p.count(8, what+" count")
	if err != nil {
		return nil, err
	}
	out := make([]int, m)
	for i := range out {
		v, _ := p.u64(what) // cannot fail: count bounded m by the bytes left
		out[i] = int(int64(v))
	}
	return out, nil
}

func (p *reader) floorplan() (*floorplan.Floorplan, error) {
	name, err := p.string("floorplan name")
	if err != nil {
		return nil, err
	}
	// A block is at least a name length, a kind and four floats.
	nBlocks, err := p.count(4+4+32, "block count")
	if err != nil {
		return nil, err
	}
	fp := &floorplan.Floorplan{Name: name, Blocks: make([]floorplan.Block, nBlocks)}
	for i := range fp.Blocks {
		bn, err := p.string("block name")
		if err != nil {
			return nil, err
		}
		kind, err := p.u32("block kind")
		if err != nil {
			return nil, err
		}
		geom, err := p.floats(4, "block geometry")
		if err != nil {
			return nil, err
		}
		fp.Blocks[i] = floorplan.Block{
			Name: bn, Kind: floorplan.Kind(kind),
			X: geom[0], Y: geom[1], W: geom[2], H: geom[3],
		}
	}
	return fp, nil
}

func (p *reader) monitorSection(rec *Record) error {
	k, err := p.u32("K")
	if err != nil {
		return err
	}
	rec.K = int(k)
	if rec.Sensors, err = p.indices("sensor"); err != nil {
		return err
	}
	packed, err := p.matrix("QR factors")
	if err != nil {
		return err
	}
	tau, err := p.floats(uint64(packed.Cols()), "QR tau")
	if err != nil {
		return err
	}
	qr, err := mat.RestoreQR(packed, tau)
	if err != nil {
		return &Error{Kind: KindInvalid, Detail: "QR factors", Err: err}
	}
	rec.QR = qr
	return nil
}

func (p *reader) operatorSection(rec *Record) error {
	op, err := p.matrix("operator")
	if err != nil {
		return err
	}
	bias, err := p.floats(uint64(op.Rows()), "operator bias")
	if err != nil {
		return err
	}
	rec.Op, rec.OpBias = op, bias
	return nil
}

func (p *reader) driftSection(rec *Record) error {
	cal, err := p.floats(2, "drift calibration")
	if err != nil {
		return err
	}
	// Each drift sensor carries a mean and a std, so the count bound
	// guarantees both reads below.
	ms, err := p.count(16, "drift sensor count")
	if err != nil {
		return err
	}
	sensorMean, _ := p.floats(uint64(ms), "drift sensor means")
	sensorStd, _ := p.floats(uint64(ms), "drift sensor stds")
	parentKey, err := p.string("drift parent key")
	if err != nil {
		return err
	}
	gen, err := p.u32("drift generation")
	if err != nil {
		return err
	}
	orig, err := p.indices("original sensor")
	if err != nil {
		return err
	}
	if len(orig) == 0 {
		orig = nil
	}
	rec.Drift = &DriftInfo{
		Calibration: drift.Calibration{Mean: cal[0], Std: cal[1], SensorMean: sensorMean, SensorStd: sensorStd},
		ParentKey:   parentKey,
		Generation:  int(gen),
		OrigSensors: orig,
	}
	return nil
}
