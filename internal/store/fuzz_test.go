package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode: no input panics Decode, every failure is a *store.Error, and
// every record that decodes re-encodes to bytes that decode to the same
// record (compared through a second encoding, which must match the first).
func FuzzDecode(f *testing.F) {
	f.Add(hostileBasis(f))
	f.Add(hostileQR(f))
	f.Add(monitorWithoutOperator(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(bytes.NewReader(data))
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("error %T is not a *store.Error: %v", err, err)
			}
			return
		}
		var first bytes.Buffer
		if err := Encode(&first, rec); err != nil {
			t.Fatalf("re-encoding a decoded record: %v", err)
		}
		back, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		var second bytes.Buffer
		if err := Encode(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("encode/decode round trip changed the record")
		}
	})
}

// FuzzDecodeIndex is FuzzDecode's property for the store index.
func FuzzDecodeIndex(f *testing.F) {
	var good bytes.Buffer
	if err := EncodeIndex(&good, sampleIndex()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(hostileIndex(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := DecodeIndex(bytes.NewReader(data))
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("error %T is not a *store.Error: %v", err, err)
			}
			return
		}
		var first bytes.Buffer
		if err := EncodeIndex(&first, idx); err != nil {
			t.Fatalf("re-encoding a decoded index: %v", err)
		}
		back, err := DecodeIndex(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		var second bytes.Buffer
		if err := EncodeIndex(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("encode/decode round trip changed the index")
		}
	})
}
