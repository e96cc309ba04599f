package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"repro/internal/drift"
	"repro/internal/recon"
)

// adaptedRecord builds a generation-1 record the way the daemon persists one
// after excluding a faulty sensor: the serving monitor section (sensors, QR,
// operator) covers the surviving subset while the drift block remembers the
// original client-facing list plus the residual calibration and lineage.
func adaptedRecord(t *testing.T) *Record {
	t.Helper()
	_, rec := trainSmall(t)
	orig := append([]int(nil), rec.Sensors...)
	survivors := append(append([]int(nil), orig[:3]...), orig[4:]...) // drop position 3
	r, err := recon.New(rec.Basis, rec.K, survivors)
	if err != nil {
		t.Fatal(err)
	}
	rec.Sensors = survivors
	rec.QR = r.QR()
	rec.Op, rec.OpBias = r.Operator()
	m := len(survivors)
	sMean := make([]float64, m)
	sStd := make([]float64, m)
	for i := range sMean {
		sMean[i] = 0.01 + 0.001*float64(i)
		sStd[i] = 0.002
	}
	rec.Drift = &DriftInfo{
		Calibration: drift.Calibration{Mean: 0.11, Std: 0.018, SensorMean: sMean, SensorStd: sStd},
		ParentKey:   "8f3a1c2b9d4e5f60",
		Generation:  1,
		OrigSensors: orig,
	}
	return rec
}

// driftSectionBounds returns the byte range the drift section occupies in an
// encoded file (header + payload + CRC): everything the drift-free encode of
// the same record does not contain, minus the trailing CRC.
func driftSectionBounds(t *testing.T, rec *Record) (data []byte, start, end int) {
	t.Helper()
	data = encodeToBytes(t, rec)
	bare := *rec
	bare.Drift = nil
	without := encodeToBytes(t, &bare)
	start = len(without) - 4 // drift bytes begin where the bare payload ended
	end = len(data) - 4
	if end <= start {
		t.Fatalf("drift section bounds [%d,%d) empty", start, end)
	}
	return data, start, end
}

func refixCRC(data []byte) {
	payload := data[16 : len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(data[8:16], uint64(len(payload)))
}

func TestDriftRoundTrip(t *testing.T) {
	rec := adaptedRecord(t)
	got, err := Decode(bytes.NewReader(encodeToBytes(t, rec)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Drift == nil {
		t.Fatal("drift section lost in round trip")
	}
	if !reflect.DeepEqual(got.Drift, rec.Drift) {
		t.Fatalf("drift round-trip: got %+v want %+v", got.Drift, rec.Drift)
	}
	if math.Float64bits(got.Drift.Mean) != math.Float64bits(rec.Drift.Mean) ||
		math.Float64bits(got.Drift.Std) != math.Float64bits(rec.Drift.Std) {
		t.Fatal("calibration bits changed")
	}
	if !bytes.Equal(floatBits(got.Drift.SensorMean), floatBits(rec.Drift.SensorMean)) ||
		!bytes.Equal(floatBits(got.Drift.SensorStd), floatBits(rec.Drift.SensorStd)) {
		t.Fatal("per-sensor moment bits changed")
	}
}

// Version 2 files — written before the drift section existed — are no
// longer read either.
func TestDecodeVersion2Record(t *testing.T) {
	_, rec := trainSmall(t)
	v2 := encodeToBytes(t, rec)
	binary.LittleEndian.PutUint32(v2[4:8], 2)
	decodeErr(t, v2, ErrUnknownVersion)
}

func TestDriftCorruptionMatrix(t *testing.T) {
	rec := adaptedRecord(t)
	data, start, end := driftSectionBounds(t, rec)

	// Truncation anywhere inside the drift section ends the payload early.
	for _, cut := range []int{start + 1, start + (end-start)/2, end - 1} {
		decodeErr(t, data[:cut], ErrTruncated)
	}

	// A bit-flip anywhere in the section fails the checksum.
	for _, off := range []int{start, start + 9, start + (end-start)/2, end - 1} {
		flipped := append([]byte(nil), data...)
		flipped[off] ^= 0x40
		decodeErr(t, flipped, ErrChecksum)
	}

	// Forgeries — corruption with the CRC (and length) re-fixed — must still
	// die structurally, never parse into a wrong calibration silently.
	negStd := append([]byte(nil), data...)
	negStd[start+15] ^= 0x80 // sign bit of the calibration Std
	refixCRC(negStd)
	decodeErr(t, negStd, ErrInvalid)

	negMoment := append([]byte(nil), data...)
	negMoment[start+16+4+7] ^= 0x80 // sign bit of SensorMean[0]
	refixCRC(negMoment)
	decodeErr(t, negMoment, ErrInvalid)

	cutLineage := append([]byte(nil), data[:len(data)-12]...) // drop one original sensor index
	cutLineage = append(cutLineage, data[len(data)-4:]...)
	refixCRC(cutLineage)
	decodeErr(t, cutLineage, ErrInvalid)
}

func TestEncodeRejectsBadDrift(t *testing.T) {
	var buf bytes.Buffer
	rec := adaptedRecord(t)

	orphan := *rec
	orphan.Sensors, orphan.K, orphan.QR, orphan.Op, orphan.OpBias = nil, 0, nil, nil, nil
	if err := Encode(&buf, &orphan); !errors.Is(err, ErrInvalid) {
		t.Fatalf("drift-without-monitor error %v, want ErrInvalid", err)
	}

	shortMoments := *rec
	shortMoments.Drift = &DriftInfo{Calibration: drift.Calibration{
		Mean: 0.1, Std: 0.02,
		SensorMean: rec.Drift.SensorMean[:2], SensorStd: rec.Drift.SensorStd[:2],
	}}
	if err := Encode(&buf, &shortMoments); !errors.Is(err, ErrInvalid) {
		t.Fatalf("short-moments error %v, want ErrInvalid", err)
	}

	badStd := *rec
	cp := *rec.Drift
	cp.Std = 0
	badStd.Drift = &cp
	if err := Encode(&buf, &badStd); !errors.Is(err, ErrInvalid) {
		t.Fatalf("zero-std error %v, want ErrInvalid", err)
	}

	nanCal := *rec
	cp2 := *rec.Drift
	cp2.Mean = math.NaN()
	nanCal.Drift = &cp2
	if err := Encode(&buf, &nanCal); !errors.Is(err, ErrInvalid) {
		t.Fatalf("NaN-calibration error %v, want ErrInvalid", err)
	}

	// Serving sensors must stay an ordered subset of the original list.
	notSubset := *rec
	cp3 := *rec.Drift
	cp3.OrigSensors = append([]int(nil), rec.Drift.OrigSensors...)
	cp3.OrigSensors[0], cp3.OrigSensors[1] = cp3.OrigSensors[1], cp3.OrigSensors[0]
	// rec.Sensors[0] now appears *after* rec.Sensors[1] in the original list.
	notSubset.Drift = &cp3
	if err := Encode(&buf, &notSubset); !errors.Is(err, ErrInvalid) {
		t.Fatalf("order-violation error %v, want ErrInvalid", err)
	}

	missing := *rec
	cp4 := *rec.Drift
	cp4.OrigSensors = rec.Drift.OrigSensors[:2]
	missing.Drift = &cp4
	if err := Encode(&buf, &missing); !errors.Is(err, ErrInvalid) {
		t.Fatalf("not-superset error %v, want ErrInvalid", err)
	}
}

// The acceptance bar for adapted records: estimates from a loaded
// generation-1 record are bit-identical to the adapted monitor that saved it.
func TestAdaptedRecordBitIdenticalEstimates(t *testing.T) {
	rec := adaptedRecord(t)
	fresh, err := recon.RestoreWithOperator(rec.Basis, rec.K, rec.Sensors, rec.QR, rec.Op, rec.OpBias)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(encodeToBytes(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := recon.RestoreWithOperator(got.Basis, got.K, got.Sensors, got.QR, got.Op, got.OpBias)
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]float64, len(rec.Sensors))
	for i := range readings {
		readings[i] = 58 + 3*float64(i)
	}
	a, err := fresh.Reconstruct(readings)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Reconstruct(readings)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(floatBits(a), floatBits(b)) {
		t.Fatal("loaded adapted monitor estimates differ bitwise from the saving monitor")
	}
	// Drift detection also resumes identically: the projector folded from the
	// loaded factors matches the saving monitor's bit-for-bit.
	if !loaded.ResidualProjector().Equal(fresh.ResidualProjector(), 0) {
		t.Fatal("loaded residual projector differs bitwise")
	}
}
