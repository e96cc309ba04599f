package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/power"
)

// parseReadings scans data as one bare [[...]...] document: the readings
// value parser applied to a whole body.
func (b *readingsBuf) parseReadings(data []byte) ([][]float64, bool) {
	i, ok := b.readingsAt(data, skipSpace(data, 0))
	if !ok || i != len(data) {
		return nil, false
	}
	return b.buildRows(), true
}

// The fast scanner must accept exactly what encoding/json accepts for a
// [][]float64 — directly, or by deferring (ok=false) to the fallback.
func TestParseReadingsAgreesWithEncodingJSON(t *testing.T) {
	accept := []string{
		`[]`,
		` [ ] `,
		`[[]]`,
		`[[1]]`,
		`[[1,2,3],[4.5,-6e2,7.25E-3]]`,
		"\n[\t[ 1 ,\r2 ] , [ 3,4 ] ]\n",
		`[[0.1,1e21,-1e-21,9007199254740993]]`,
	}
	for _, doc := range accept {
		buf := new(readingsBuf)
		got, ok := buf.parseReadings([]byte(doc))
		if !ok {
			t.Errorf("parseReadings(%q): fell back, want fast path", doc)
			continue
		}
		var want [][]float64
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatalf("json.Unmarshal(%q): %v", doc, err)
		}
		if len(got) != len(want) {
			t.Errorf("parseReadings(%q): %d rows, want %d", doc, len(got), len(want))
		}
		for i := range got {
			for j := range got[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Errorf("parseReadings(%q): [%d][%d] = %v, want %v", doc, i, j, got[i][j], want[i][j])
				}
			}
		}
	}

	// Shapes the scanner must NOT claim: it defers, and encoding/json's
	// verdict (valid-but-unusual or an error) stands.
	defer_ := []string{
		``, `null`, `true`, `42`, `[1,2]`, `[[1],null]`, `[["a"]]`,
		`[[1,]]`, `[[1],]`, `[[1]] x`, `[[NaN]]`, `[[1e999]]`, `{"a":1}`, `[[1`, `[[--1]]`,
		// strconv spellings that are not JSON numbers
		`[[+1]]`, `[[.5]]`, `[[1.]]`, `[[01]]`, `[[-]]`, `[[1e]]`, `[[1e+]]`, `[[0x10]]`, `[[Inf]]`,
	}
	for _, doc := range defer_ {
		buf := new(readingsBuf)
		if _, ok := buf.parseReadings([]byte(doc)); ok {
			t.Errorf("parseReadings(%q): claimed the fast path, want fallback", doc)
		}
	}
}

// The envelope scanner must agree with encoding/json on the documents it
// claims and defer on everything else.
func TestParseEstimateRequestAgreesWithEncodingJSON(t *testing.T) {
	claim := []string{
		`{}`,
		`{"readings":[[1,2],[3,4]]}`,
		`{"readings":[[1,2]],"include_maps":true}`,
		// The benchmark fleet's bodies: shortest round-trip floats.
		`{"readings":[[62.5,6.25e-05],[1e+21,-0.5]]}`,
		`{"readings":[[62.5,6.25e-05],[1e+21,-0.5]],"include_maps":true}`,
		`{"readings":[]}`,
		`{"include_maps":false,"readings":[[5.5]]}`,
		` { "readings" : [ [ 1 ] ] , "include_maps" : true } `,
		`{"readings":[[1]],"readings":[[2,3]]}`, // duplicate key: last wins
		`{"include_maps":true}`,                 // readings absent: empty batch
	}
	for _, doc := range claim {
		buf := new(readingsBuf)
		rows, includeMaps, _, ok := buf.parseRequest([]byte(doc), false)
		if !ok {
			t.Errorf("parseRequest(%q): fell back, want fast path", doc)
			continue
		}
		var std struct {
			Readings    json.RawMessage `json:"readings"`
			IncludeMaps bool            `json:"include_maps"`
		}
		if err := json.Unmarshal([]byte(doc), &std); err != nil {
			t.Fatalf("json.Unmarshal(%q): %v", doc, err)
		}
		var stdRows [][]float64
		if len(std.Readings) > 0 {
			if err := json.Unmarshal(std.Readings, &stdRows); err != nil {
				t.Fatalf("json.Unmarshal readings(%q): %v", doc, err)
			}
		}
		if includeMaps != std.IncludeMaps {
			t.Errorf("parseRequest(%q): include_maps=%v, want %v",
				doc, includeMaps, std.IncludeMaps)
		}
		if len(rows) != len(stdRows) {
			t.Errorf("parseRequest(%q): %d rows, want %d", doc, len(rows), len(stdRows))
			continue
		}
		for i := range rows {
			if !reflect.DeepEqual(rows[i], stdRows[i]) {
				t.Errorf("parseRequest(%q): row %d = %v, want %v", doc, i, rows[i], stdRows[i])
			}
		}
	}

	defer_ := []string{
		``, `null`, `[]`, `{`, `{"readings":null}`, `{"readings":[[1]],"extra":1}`,
		`{"include_maps":1}`,
		`{"readings":[[1]]} trailing`, `{"readings":[[1]]`,
		// The retired arm and workers fields are unknown keys:
		// encoding/json ignores them.
		`{"readings":[[1]],"arm":"qr"}`,
		`{"readings":[[1,2]],"workers":3,"include_maps":true}`,
		`{"workers":2}`,
	}
	for _, doc := range defer_ {
		buf := new(readingsBuf)
		if _, _, _, ok := buf.parseRequest([]byte(doc), false); ok {
			t.Errorf("parseRequest(%q): claimed the fast path, want fallback", doc)
		}
	}
}

// A pooled buffer reused across parses must not leak rows between requests.
func TestParseReadingsReuse(t *testing.T) {
	buf := new(readingsBuf)
	first, ok := buf.parseReadings([]byte(`[[1,2,3],[4,5,6],[7,8,9]]`))
	if !ok || len(first) != 3 {
		t.Fatalf("first parse: ok=%v rows=%d", ok, len(first))
	}
	second, ok := buf.parseReadings([]byte(`[[10,20]]`))
	if !ok || len(second) != 1 || !reflect.DeepEqual(second[0], []float64{10, 20}) {
		t.Fatalf("second parse: ok=%v rows=%v", ok, second)
	}
}

// The hand-rendered response decodes to exactly what encoding/json would
// have produced for the same summaries, with and without maps.
func TestAppendEstimateResponseMatchesEncodingJSON(t *testing.T) {
	cases := [][]snapshotSummary{
		{},
		{{MaxC: 91.25, MinC: 40.5, MeanC: 55.123456789012345, MaxCell: 7}},
		{
			{MaxC: 1e-7, MinC: -2.5e21, MeanC: 0, MaxCell: 0, Map: []float64{1.5, -2.25, 3e-9}},
			{MaxC: 80, MinC: 45, MeanC: 60.5, MaxCell: 119, Map: []float64{}},
		},
	}
	for _, results := range cases {
		got := appendEstimateResponse(nil, results, "drifting")
		if !json.Valid(got) {
			t.Fatalf("invalid JSON: %s", got)
		}
		type envelope struct {
			Quality string            `json:"quality"`
			Results []snapshotSummary `json:"results"`
		}
		var fromFast, fromStd envelope
		if err := json.Unmarshal(got, &fromFast); err != nil {
			t.Fatal(err)
		}
		if fromFast.Quality != "drifting" {
			t.Fatalf("quality %q, want drifting", fromFast.Quality)
		}
		std, err := json.Marshal(envelope{Quality: "drifting", Results: results})
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(std, &fromStd); err != nil {
			t.Fatal(err)
		}
		// Compare decoded values bit-for-bit; the empty-but-non-nil map
		// distinction is lost by omitempty in both renderers alike.
		if len(fromFast.Results) != len(fromStd.Results) {
			t.Fatalf("%d results, want %d", len(fromFast.Results), len(fromStd.Results))
		}
		for i := range fromFast.Results {
			a, b := fromFast.Results[i], fromStd.Results[i]
			for _, pair := range [][2]float64{{a.MaxC, b.MaxC}, {a.MinC, b.MinC}, {a.MeanC, b.MeanC}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("result %d: %v != %v", i, pair[0], pair[1])
				}
			}
			if a.MaxCell != b.MaxCell || !reflect.DeepEqual(a.Map, b.Map) {
				t.Fatalf("result %d: %+v != %+v", i, a, b)
			}
		}
	}
}

// BenchmarkAppendEstimateResponse renders one fleet-shaped estimate reply:
// the summaries of 128 simulated t1 16×14 maps, three floats and an int
// each, without maps. It is the encode layer's in-process cost.
func BenchmarkAppendEstimateResponse(b *testing.B) {
	fp, err := floorplan.Named("t1")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.Generate(fp, dataset.GenConfig{
		Grid: floorplan.Grid{W: 16, H: 14}, Snapshots: 128, Seed: 1_000_003,
		Power: power.ConfigFor(fp, 0.75),
	})
	if err != nil {
		b.Fatal(err)
	}
	sums := make([]snapshotSummary, 128)
	for i := range sums {
		sums[i] = summarize(ds.Map(i), false)
	}
	buf := appendEstimateResponse(nil, sums, "ok")
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendEstimateResponse(buf[:0], sums, "ok")
	}
}
