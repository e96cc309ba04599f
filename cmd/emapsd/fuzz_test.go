package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// FuzzJSONWalker is the differential oracle for the walker behind the
// estimate, track and govern fast paths: every body the fast path claims
// must be one encoding/json accepts, and must decode to the values
// encoding/json gives. Each input is tried as both an estimate and a govern
// body. Seeds cover the bodies the benchmark fleet sends, every number
// seed of FuzzParseNumber as a reading, and the committed corpus in
// testdata/fuzz.
func FuzzJSONWalker(f *testing.F) {
	for _, seed := range []string{
		`{"readings":[[62,61,60,59,58,57,56,55]]}`,
		`{"readings":[[62.5,61.25],[-1e-3,0]],"include_maps":true}`,
		`{"workers":2,"readings":[[1]],"include_maps":false}`,
		`{"config":{"policy":"pi","ceiling_c":70,"ladder":[0.5,1]},"readings":[[1,2]]}`,
	} {
		f.Add([]byte(seed))
	}
	// Every tier and edge of the number parser, as a reading.
	for _, n := range numberSeeds {
		f.Add([]byte(`{"readings":[[` + n + `]]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if rows, includeMaps, _, ok := new(readingsBuf).parseRequest(data, false); ok {
			var ref struct {
				Readings    [][]float64 `json:"readings"`
				IncludeMaps bool        `json:"include_maps"`
			}
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatalf("estimate fast path claimed %q, encoding/json rejects it: %v", data, err)
			}
			if includeMaps != ref.IncludeMaps {
				t.Fatalf("estimate %q: include_maps=%v, encoding/json %v",
					data, includeMaps, ref.IncludeMaps)
			}
			sameRows(t, data, rows, ref.Readings)
		}
		if rows, _, cfg, ok := new(readingsBuf).parseRequest(data, true); ok {
			var ref struct {
				Config   *wire.GovernConfig `json:"config"`
				Readings [][]float64        `json:"readings"`
			}
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatalf("govern fast path claimed %q, encoding/json rejects it: %v", data, err)
			}
			if !reflect.DeepEqual(cfg, ref.Config) {
				t.Fatalf("govern %q: config %+v, encoding/json %+v", data, cfg, ref.Config)
			}
			sameRows(t, data, rows, ref.Readings)
		}
	})
}

// sameRows fails unless got and want hold the same float64 bits row by row
// (a nil batch and an empty one are the same batch).
func sameRows(t *testing.T, data []byte, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%q: %d rows, encoding/json %d", data, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%q: row %d has %d readings, encoding/json %d", data, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%q: [%d][%d] = %v, encoding/json %v", data, i, j, got[i][j], want[i][j])
			}
		}
	}
}
