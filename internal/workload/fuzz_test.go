package workload

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeSpec: no input panics the strict spec decoder, and every spec
// that decodes survives the canonical round trip cmd/speclint applies to the
// committed catalog — encode, decode the encoding, deep-equal.
func FuzzDecodeSpec(f *testing.F) {
	for _, name := range Names() {
		s, err := Parse(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Decode(data)
		if err != nil {
			return
		}
		out, err := spec.Encode()
		if err != nil {
			t.Fatalf("encoding a decoded spec: %v", err)
		}
		back, err := Decode(out)
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("encode/decode round trip changed the spec:\n%s", out)
		}
	})
}
