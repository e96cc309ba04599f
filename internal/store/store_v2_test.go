package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/mat"
	"repro/internal/recon"
)

func TestOperatorRoundTrip(t *testing.T) {
	_, rec := trainSmall(t)
	got, err := Decode(bytes.NewReader(encodeToBytes(t, rec)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Op == nil || got.OpBias == nil {
		t.Fatal("operator section lost in round trip")
	}
	if !bytes.Equal(floatBits(got.Op.Data()), floatBits(rec.Op.Data())) {
		t.Fatal("operator bits changed")
	}
	if !bytes.Equal(floatBits(got.OpBias), floatBits(rec.OpBias)) {
		t.Fatal("operator bias bits changed")
	}
	// A monitor restored from the persisted operator estimates bit-identically
	// to one freshly folded from the same basis and sensors.
	refolded, err := recon.New(got.Basis, got.K, got.Sensors)
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := recon.RestoreWithOperator(got.Basis, got.K, got.Sensors, got.QR, got.Op, got.OpBias)
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]float64, len(got.Sensors))
	for i := range readings {
		readings[i] = 60 + 2*float64(i)
	}
	a, err := refolded.Reconstruct(readings)
	if err != nil {
		t.Fatal(err)
	}
	b, err := adopted.Reconstruct(readings)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(floatBits(a), floatBits(b)) {
		t.Fatal("adopted operator estimates differ from re-folded")
	}
}

// Version 1 files — written before the operator section existed — are no
// longer read: the payload would still parse, so the version word alone
// must turn them away, typed.
func TestDecodeVersion1Record(t *testing.T) {
	_, rec := trainSmall(t)
	v1 := encodeToBytes(t, rec)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	decodeErr(t, v1, ErrUnknownVersion)
}

func TestEncodeRejectsPartialOperatorSection(t *testing.T) {
	_, rec := trainSmall(t)
	var buf bytes.Buffer
	half := *rec
	half.OpBias = nil
	if err := Encode(&buf, &half); !errors.Is(err, ErrInvalid) {
		t.Fatalf("operator-without-bias error %v, want ErrInvalid", err)
	}
	orphan := *rec
	orphan.Sensors, orphan.K, orphan.QR = nil, 0, nil
	if err := Encode(&buf, &orphan); !errors.Is(err, ErrInvalid) {
		t.Fatalf("operator-without-monitor error %v, want ErrInvalid", err)
	}
	bare := *rec
	bare.Op, bare.OpBias = nil, nil
	if err := Encode(&buf, &bare); !errors.Is(err, ErrInvalid) {
		t.Fatalf("monitor-without-operator error %v, want ErrInvalid", err)
	}
	short := *rec
	short.OpBias = rec.OpBias[:3]
	if err := Encode(&buf, &short); !errors.Is(err, ErrInvalid) {
		t.Fatalf("short-bias error %v, want ErrInvalid", err)
	}
}

func TestDecodeRejectsWrongShapeOperator(t *testing.T) {
	_, rec := trainSmall(t)
	wrong := *rec
	wrong.Op = mat.New(3, 3)
	wrong.OpBias = make([]float64, 3)
	decodeErr(t, encodeToBytes(t, &wrong), ErrInvalid)
}

func TestDecodeRejectsOversizedOperatorShape(t *testing.T) {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, 1<<20)
	buf = binary.LittleEndian.AppendUint32(buf, 1<<20)
	p := &reader{buf: buf}
	if err := p.operatorSection(&Record{}); err == nil || !errors.Is(err, ErrInvalid) {
		t.Fatalf("error %v, want ErrInvalid", err)
	}
}
