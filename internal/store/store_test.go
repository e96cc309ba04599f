package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/recon"
)

// trainSmall runs the design-time pipeline at test scale and returns the
// model plus a monitor record for it, as the daemon persists one. Its
// metadata carries the retired "solver" field that records written before
// the CG arm was removed all have, so every test here also pins that such
// records still decode.
func trainSmall(t *testing.T) (*core.Model, *Record) {
	t.Helper()
	fp := floorplan.UltraSparcT1()
	ds, err := dataset.Generate(fp, dataset.GenConfig{
		Grid: floorplan.Grid{W: 12, H: 10}, Snapshots: 60, Seed: 7,
		Power: power.Config{LoadCoupling: 0.75},
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Train(ds, core.TrainOptions{KMax: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sensors, err := model.PlaceSensors(8, core.PlaceOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := model.NewMonitor(4, sensors)
	if err != nil {
		t.Fatal(err)
	}
	rec := mon.Reconstructor()
	op, opBias := rec.Operator()
	return model, &Record{
		Meta: Meta{
			Floorplan: fp.Name, GridW: 12, GridH: 10,
			Snapshots: 60, Seed: 7, KMax: 8, Solver: "direct",
			LoadCoupling: 0.75, MonitorID: "mon-1",
		},
		Basis:     model.Basis,
		Floorplan: fp,
		Energy:    model.Energy,
		Sensors:   rec.Sensors(),
		K:         rec.K(),
		QR:        rec.QR(),
		Op:        op,
		OpBias:    opBias,
	}
}

func encodeToBytes(t *testing.T, rec *Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, rec); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func decodeErr(t *testing.T, data []byte, want error) *Error {
	t.Helper()
	_, err := Decode(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("decode succeeded, want %v", want)
	}
	if !errors.Is(err, want) {
		t.Fatalf("decode error %v, want errors.Is %v", err, want)
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("decode error %T is not a *store.Error", err)
	}
	return se
}

func TestRoundTrip(t *testing.T) {
	_, rec := trainSmall(t)
	data := encodeToBytes(t, rec)
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got.Meta, rec.Meta) {
		t.Errorf("meta round-trip: got %+v want %+v", got.Meta, rec.Meta)
	}
	if !reflect.DeepEqual(got.Sensors, rec.Sensors) || got.K != rec.K {
		t.Errorf("placement round-trip: got %v/K=%d want %v/K=%d", got.Sensors, got.K, rec.Sensors, rec.K)
	}
	if got.Basis.Grid != rec.Basis.Grid || got.Basis.KMax() != rec.Basis.KMax() {
		t.Errorf("basis shape round-trip mismatch")
	}
	// Every float must survive bit-exactly: this is what makes loaded
	// monitors estimate bit-identically.
	for i, v := range rec.Basis.Mean {
		if math.Float64bits(got.Basis.Mean[i]) != math.Float64bits(v) {
			t.Fatalf("mean[%d] bits changed", i)
		}
	}
	if !bytes.Equal(floatBits(got.Basis.Psi.Data()), floatBits(rec.Basis.Psi.Data())) {
		t.Fatal("basis matrix bits changed")
	}
	if !bytes.Equal(floatBits(got.Energy), floatBits(rec.Energy)) {
		t.Fatal("energy bits changed")
	}
	gp, gt := got.QR.Factors()
	wp, wt := rec.QR.Factors()
	if !bytes.Equal(floatBits(gp.Data()), floatBits(wp.Data())) || !bytes.Equal(floatBits(gt), floatBits(wt)) {
		t.Fatal("QR factor bits changed")
	}
	if got.Floorplan.Name != rec.Floorplan.Name || len(got.Floorplan.Blocks) != len(rec.Floorplan.Blocks) {
		t.Errorf("floorplan round-trip mismatch")
	}
	// The restored reconstructor must solve bit-identically.
	orig, err := recon.RestoreWithOperator(rec.Basis, rec.K, rec.Sensors, rec.QR, rec.Op, rec.OpBias)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := recon.RestoreWithOperator(got.Basis, got.K, got.Sensors, got.QR, got.Op, got.OpBias)
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]float64, len(rec.Sensors))
	for i := range readings {
		readings[i] = 55 + 3*float64(i)
	}
	a, err := orig.Reconstruct(readings)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Reconstruct(readings)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("cell %d: %x != %x", i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
}

func floatBits(fs []float64) []byte {
	out := make([]byte, 8*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

func TestModelOnlyRecord(t *testing.T) {
	_, full := trainSmall(t)
	rec := &Record{Meta: full.Meta, Basis: full.Basis, Floorplan: full.Floorplan, Energy: full.Energy}
	got, err := Decode(bytes.NewReader(encodeToBytes(t, rec)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.HasMonitor() {
		t.Fatal("model-only record reports a monitor section")
	}
	if got.Energy == nil || got.Floorplan == nil {
		t.Fatal("model-only record lost a section")
	}
}

func TestEncodeEmptyEnergyMeansAbsent(t *testing.T) {
	// A non-nil empty slice encodes like nil: a zero-length energy section
	// would be bytes Decode rejects (energy must cover all N cells).
	_, full := trainSmall(t)
	rec := &Record{Meta: full.Meta, Basis: full.Basis, Energy: []float64{}}
	got, err := Decode(bytes.NewReader(encodeToBytes(t, rec)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Energy != nil {
		t.Fatalf("empty energy round-tripped as %v, want absent", got.Energy)
	}
}

func TestDecodeTruncated(t *testing.T) {
	_, rec := trainSmall(t)
	data := encodeToBytes(t, rec)
	// Every prefix must fail typed, never panic. Check a spread of cut
	// points: inside the magic, the header, the payload and the checksum.
	for _, n := range []int{0, 2, 9, 40, len(data) / 2, len(data) - 3} {
		if _, err := Decode(bytes.NewReader(data[:n])); !errors.Is(err, ErrTruncated) {
			t.Errorf("prefix %d: error %v, want ErrTruncated", n, err)
		}
	}
}

func TestDecodeFlippedChecksumByte(t *testing.T) {
	_, rec := trainSmall(t)
	data := encodeToBytes(t, rec)
	// Flip one payload byte: the CRC must catch it.
	mid := append([]byte(nil), data...)
	mid[len(mid)/2] ^= 0x40
	decodeErr(t, mid, ErrChecksum)
	// Flip a byte of the stored checksum itself.
	tail := append([]byte(nil), data...)
	tail[len(tail)-1] ^= 0x01
	decodeErr(t, tail, ErrChecksum)
}

func TestDecodeFutureVersion(t *testing.T) {
	_, rec := trainSmall(t)
	data := encodeToBytes(t, rec)
	future := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(future[4:8], Version+41)
	se := decodeErr(t, future, ErrUnknownVersion)
	if se.Kind != KindUnknownVersion {
		t.Fatalf("kind %v", se.Kind)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	_, rec := trainSmall(t)
	data := encodeToBytes(t, rec)
	bad := append([]byte(nil), data...)
	copy(bad, "NOPE")
	decodeErr(t, bad, ErrBadMagic)
}

func TestDecodeCrossFloorplan(t *testing.T) {
	_, rec := trainSmall(t)
	// Metadata claiming a different grid than the basis carries: the
	// signature of a record pointed at the wrong die.
	wrongGrid := *rec
	wrongGrid.Meta.GridW, wrongGrid.Meta.GridH = 16, 14
	se := decodeErr(t, encodeToBytes(t, &wrongGrid), ErrInvalid)
	if se.Kind != KindInvalid {
		t.Fatalf("kind %v", se.Kind)
	}
	// Metadata naming a floorplan the record's floorplan section isn't.
	wrongName := *rec
	wrongName.Meta = rec.Meta
	wrongName.Meta.Floorplan = "amd-athlon64"
	decodeErr(t, encodeToBytes(t, &wrongName), ErrInvalid)
	// A sensor index outside the basis grid (as after loading a small-grid
	// record against a tampered large-grid claim).
	badSensor := *rec
	badSensor.Meta = rec.Meta
	badSensor.Sensors = append([]int(nil), rec.Sensors...)
	badSensor.Sensors[0] = rec.Basis.N() + 5
	decodeErr(t, encodeToBytes(t, &badSensor), ErrInvalid)
}

func TestDecodeRejectsUnknownMetaFields(t *testing.T) {
	_, rec := trainSmall(t)
	data := encodeToBytes(t, rec)
	// Graft a meta blob with an unknown field, fixing up lengths and CRC —
	// simulating a file written by a same-version build with a drifted
	// schema. Strict decode must reject it.
	metaLen := binary.LittleEndian.Uint32(data[16:20])
	oldMeta := data[20 : 20+int(metaLen)]
	newMeta := append([]byte(`{"from_the_future":1,`), oldMeta[1:]...)
	payloadLen := binary.LittleEndian.Uint64(data[8:16])
	var out bytes.Buffer
	out.Write(data[:8])
	newPayloadLen := payloadLen + uint64(len(newMeta)-len(oldMeta))
	out.Write(binary.LittleEndian.AppendUint64(nil, newPayloadLen))
	out.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(newMeta))))
	out.Write(newMeta)
	out.Write(data[20+int(metaLen) : len(data)-4])
	payload := out.Bytes()[16:]
	crc := crc32.ChecksumIEEE(payload)
	out.Write(binary.LittleEndian.AppendUint32(nil, crc))
	decodeErr(t, out.Bytes(), ErrInvalid)
}

func TestSaveFileAtomicAndLoad(t *testing.T) {
	_, rec := trainSmall(t)
	path := t.TempDir() + "/mon-1.emon"
	if err := SaveFile(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasMonitor() || got.Meta.MonitorID != "mon-1" {
		t.Fatalf("loaded record %+v", got.Meta)
	}
	// Overwrite must go through the same atomic path.
	rec2 := *rec
	rec2.Meta.MonitorID = "mon-2"
	if err := SaveFile(path, &rec2); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.MonitorID != "mon-2" {
		t.Fatalf("overwrite not visible: %q", got.Meta.MonitorID)
	}
}

func TestEncodeRejectsPartialMonitorSection(t *testing.T) {
	_, rec := trainSmall(t)
	partial := &Record{Meta: rec.Meta, Basis: rec.Basis, Sensors: rec.Sensors}
	var buf bytes.Buffer
	if err := Encode(&buf, partial); !errors.Is(err, ErrInvalid) {
		t.Fatalf("error %v, want ErrInvalid", err)
	}
	if err := Encode(&buf, &Record{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("no-basis error %v, want ErrInvalid", err)
	}
}

func TestDecodeRejectsOversizedQRShape(t *testing.T) {
	// A forged monitor section claiming an enormous QR must be rejected by
	// the structural bounds checks before any allocation is attempted:
	// K=4, M=2 sensors, then a 2^20 × 2^20 factor claim.
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, 4)
	buf = binary.LittleEndian.AppendUint32(buf, 2)
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, 1<<20)
	buf = binary.LittleEndian.AppendUint32(buf, 1<<20)
	p := &reader{buf: buf}
	if err := p.monitorSection(&Record{}); err == nil || !errors.Is(err, ErrInvalid) {
		t.Fatalf("error %v, want ErrInvalid", err)
	}
}
