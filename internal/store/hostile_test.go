package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/basis"
	"repro/internal/floorplan"
	"repro/internal/mat"
)

// Hostile inputs: tiny files whose counts or shapes claim far more data than
// they carry. Each used to abort or panic the process (out of memory on
// amd64, makeslice on 386); each must now fail as a typed ErrInvalid before
// anything is allocated for the claim. FuzzDecode and FuzzDecodeIndex seed
// their corpora with the same bytes.

// frame wraps payload in an envelope with a valid checksum.
func frame(t testing.TB, mg string, version uint32, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, mg, version, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileIndex is a 24-byte index whose payload is only the entry count
// 2^27.
func hostileIndex(t testing.TB) []byte {
	return frame(t, indexMagic, IndexVersion, binary.LittleEndian.AppendUint32(nil, 1<<27))
}

// recordPayload assembles a record payload from its raw parts: "{}"
// metadata, the flags word, the length-prefixed basis blob and whatever
// sections follow.
func recordPayload(flags uint32, basisBlob []byte, rest ...[]byte) []byte {
	var p bytes.Buffer
	putU32(&p, 2)
	p.WriteString("{}")
	putU32(&p, flags)
	putU64(&p, uint64(len(basisBlob)))
	p.Write(basisBlob)
	for _, r := range rest {
		p.Write(r)
	}
	return p.Bytes()
}

// hostileBasis is a record whose basis section is a bare 24-byte header
// declaring W = H = 65536 and K = 1: 32 GiB for the mean alone.
func hostileBasis(t testing.TB) []byte {
	head := []byte("EMBS")
	for _, v := range []uint32{1, 0, 65536, 65536, 1} {
		head = binary.LittleEndian.AppendUint32(head, v)
	}
	return frame(t, magic, Version, recordPayload(0, head))
}

// tinyBasisBlob encodes a valid 1×1, K = 1 basis.
func tinyBasisBlob(t testing.TB) []byte {
	t.Helper()
	b := &basis.Basis{Name: "tiny", Grid: floorplan.Grid{W: 1, H: 1},
		Mean: []float64{50}, Psi: mat.NewFromData(1, 1, []float64{1}), Importance: []float64{1}}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileQR is a monitor record whose 16-byte monitor section header
// (K = 1, no sensors) declares a 32768×16384 QR: 8·2^29 bytes, which
// overflowed int on 386.
func hostileQR(t testing.TB) []byte {
	var sec []byte
	for _, v := range []uint32{1, 0, 32768, 16384} {
		sec = binary.LittleEndian.AppendUint32(sec, v)
	}
	return frame(t, magic, Version, recordPayload(flagMonitor|flagOperator, tinyBasisBlob(t), sec))
}

// monitorWithoutOperator is a v3 record whose flags claim a monitor
// section but no operator section, which version 1 files had.
func monitorWithoutOperator(t testing.TB) []byte {
	return frame(t, magic, Version, recordPayload(flagMonitor, tinyBasisBlob(t)))
}

func TestHostileShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"basis header beyond payload", hostileBasis(t)},
		{"QR shape beyond payload", hostileQR(t)},
		{"monitor without operator", monitorWithoutOperator(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			decodeErr(t, tc.data, ErrInvalid)
		})
	}
	t.Run("index entry count beyond payload", func(t *testing.T) {
		data := hostileIndex(t)
		if len(data) != 24 {
			t.Fatalf("hostile index is %d bytes, want 24", len(data))
		}
		_, err := DecodeIndex(bytes.NewReader(data))
		var se *Error
		if !errors.Is(err, ErrInvalid) || !errors.As(err, &se) {
			t.Fatalf("err = %v, want a *store.Error matching ErrInvalid", err)
		}
	})
}
