package wire

import "testing"

// The binary decoders read untrusted request bodies (and, in clients,
// untrusted responses). Their contract under arbitrary bytes is: return an
// error or a value, never panic, never allocate past what the payload can
// carry. Seeds are one valid frame per decoder plus the committed corpus in
// testdata/fuzz, which includes the hostile batch shapes.

func FuzzDecodeEstimateRequest(f *testing.F) {
	good, err := AppendEstimateRequest(nil, sampleRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	scratch := &ReadingsBuf{}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeEstimateRequest(data, scratch)
		if err == nil && len(req.Readings) > len(data)/8 {
			t.Fatalf("%d rows decoded from %d bytes", len(req.Readings), len(data))
		}
	})
}

func FuzzDecodeGovernRequest(f *testing.F) {
	good, err := AppendGovernRequest(nil, governTestRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	scratch := &ReadingsBuf{}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeGovernRequest(data, scratch)
		if err == nil && len(req.Readings) > len(data)/8 {
			t.Fatalf("%d rows decoded from %d bytes", len(req.Readings), len(data))
		}
	})
}

func FuzzDecodeEstimateResponse(f *testing.F) {
	f.Add(AppendEstimateResponse(nil, []Summary{
		{MaxC: 81.5, MinC: 44.25, MeanC: 60.125, MaxCell: 17, Map: []float64{60, 61, 62.5}},
		{MaxC: 79, MinC: 45, MeanC: 59, MaxCell: 3},
	}, QualityDrifting))
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeEstimateResponse(data)
	})
}

func FuzzDecodeGovernResponse(f *testing.F) {
	good, err := AppendGovernResponse(nil, governTestResponse())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeGovernResponse(data)
	})
}
