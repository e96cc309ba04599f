package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleRequest() *EstimateRequest {
	return &EstimateRequest{
		Readings: [][]float64{
			{62.5, 61.25, 60, 59, 58, 57, 56, 55},
			{63, 62, 61, 60, 59, 58, 57, 56.125},
		},
		IncludeMaps: true,
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := sampleRequest()
	buf, err := AppendEstimateRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEstimateRequest(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Readings, req.Readings) {
		t.Fatalf("readings round-trip:\n got %v\nwant %v", got.Readings, req.Readings)
	}
	if !got.IncludeMaps {
		t.Fatalf("options round-trip: %+v", got)
	}
	// The word after the flags (payload offset 4, frame offset 20) is
	// reserved: written as 0, and a frame carrying anything there (an old
	// client's workers) decodes the same.
	if w := binary.LittleEndian.Uint32(buf[20:]); w != 0 {
		t.Fatalf("reserved word written as %d", w)
	}
	old := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(old[20:], 7)
	recrc(old, old[16:len(old)-4])
	if again, err := DecodeEstimateRequest(old, nil); err != nil || !reflect.DeepEqual(again, got) {
		t.Fatalf("reserved word 7: %+v, %v; want %+v", again, err, got)
	}
}

// TestRequestBitExactFloats: the binary codec must move readings
// bit-for-bit — including values decimal text would round — because the
// JSON-parity acceptance pin compares decoded structs across protocols.
func TestRequestBitExactFloats(t *testing.T) {
	hostile := []float64{
		math.Pi,
		math.Nextafter(60, 61),
		math.SmallestNonzeroFloat64,
		-0.0,
		1e300,
	}
	buf, err := AppendEstimateRequest(nil, &EstimateRequest{Readings: [][]float64{hostile}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEstimateRequest(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range got.Readings[0] {
		if math.Float64bits(f) != math.Float64bits(hostile[i]) {
			t.Fatalf("reading %d: %x, want %x", i, math.Float64bits(f), math.Float64bits(hostile[i]))
		}
	}
}

func TestRequestRaggedBatchRejected(t *testing.T) {
	_, err := AppendEstimateRequest(nil, &EstimateRequest{
		Readings: [][]float64{{1, 2}, {1, 2, 3}},
	})
	if err == nil || !strings.Contains(err.Error(), "ragged") {
		t.Fatalf("err = %v, want ragged-batch error", err)
	}
}

func TestRequestScratchReuse(t *testing.T) {
	req := sampleRequest()
	buf, err := AppendEstimateRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	scratch := &ReadingsBuf{}
	first, err := DecodeEstimateRequest(buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Readings, req.Readings) {
		t.Fatal("first decode with scratch mismatched")
	}
	// A second decode reuses the same backing storage.
	second, err := DecodeEstimateRequest(buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &first.Readings[0][0] != &second.Readings[0][0] {
		t.Fatal("scratch was not reused across decodes")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	in := []Summary{
		{MaxC: 81.5, MinC: 44.25, MeanC: 60.125, MaxCell: 17, Map: []float64{60, 61, 62.5}},
		{MaxC: 79, MinC: 45, MeanC: 59, MaxCell: 3},
	}
	for _, q := range []Quality{QualityOK, QualityDrifting, QualityDegraded} {
		buf := AppendEstimateResponse(nil, in, q)
		got, gotQ, err := DecodeEstimateResponse(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("response round-trip:\n got %+v\nwant %+v", got, in)
		}
		if gotQ != q {
			t.Fatalf("quality round-trip: got %v want %v", gotQ, q)
		}
	}
}

func TestResponseEmpty(t *testing.T) {
	buf := AppendEstimateResponse(nil, nil, QualityOK)
	got, q, err := DecodeEstimateResponse(buf)
	if err != nil || len(got) != 0 || q != QualityOK {
		t.Fatalf("empty response: %v %v %v", got, q, err)
	}
}

func TestResponseUnknownFlagsRejected(t *testing.T) {
	buf := AppendEstimateResponse(nil, []Summary{{MaxC: 1}}, QualityOK)
	// Response flags live at payload offset 0 → frame offset 16.
	buf[16] |= 0x80
	recrc(buf, buf[16:len(buf)-4])
	if _, _, err := DecodeEstimateResponse(buf); err == nil {
		t.Fatal("accepted unknown response flags")
	}
}

// TestHostileBytes: every malformed frame is a clean error, never a panic
// or a giant allocation.
func TestHostileBytes(t *testing.T) {
	req := sampleRequest()
	goodReq, err := AppendEstimateRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	goodResp := AppendEstimateResponse(nil, []Summary{{MaxC: 1, Map: []float64{1, 2}}}, QualityOK)

	t.Run("wrong magic", func(t *testing.T) {
		bad := append([]byte(nil), goodReq...)
		copy(bad, "EMRS") // a response frame on the request decoder
		if _, err := DecodeEstimateRequest(bad, nil); err == nil {
			t.Fatal("accepted wrong magic")
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), goodReq...)
		bad[4] = 99
		if _, err := DecodeEstimateRequest(bad, nil); err == nil {
			t.Fatal("accepted future version")
		}
	})
	t.Run("retired version 1", func(t *testing.T) {
		// The CRC covers only the payload, so rewriting the version word
		// reproduces a version 1 frame exactly.
		for _, frame := range [][]byte{goodReq, goodResp} {
			old := append([]byte(nil), frame...)
			old[4] = 1
			_, reqErr := DecodeEstimateRequest(old, nil)
			_, _, respErr := DecodeEstimateResponse(old)
			if reqErr == nil || respErr == nil {
				t.Fatal("accepted a version 1 frame")
			}
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for _, cut := range []int{0, 3, 15, 17, len(goodReq) / 2, len(goodReq) - 1} {
			if _, err := DecodeEstimateRequest(goodReq[:cut], nil); err == nil {
				t.Fatalf("accepted request cut at %d", cut)
			}
		}
		for _, cut := range []int{0, 15, len(goodResp) / 2, len(goodResp) - 1} {
			if _, _, err := DecodeEstimateResponse(goodResp[:cut]); err == nil {
				t.Fatalf("accepted response cut at %d", cut)
			}
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte(nil), goodReq...)
		bad[20] ^= 0x01
		if _, err := DecodeEstimateRequest(bad, nil); err == nil {
			t.Fatal("accepted corrupt payload (crc should catch)")
		}
	})
	t.Run("huge declared length", func(t *testing.T) {
		bad := append([]byte(nil), goodReq...)
		for i := 8; i < 16; i++ {
			bad[i] = 0xff
		}
		if _, err := DecodeEstimateRequest(bad, nil); err == nil {
			t.Fatal("accepted absurd payload length")
		}
	})
	t.Run("rows x cols overflow vs payload", func(t *testing.T) {
		// Hand-build a frame whose header claims more readings than the
		// payload holds.
		lying := *req
		lyingBuf, err := AppendEstimateRequest(nil, &lying)
		if err != nil {
			t.Fatal(err)
		}
		// rows field lives at payload offset 8 → frame offset 16+8.
		lyingBuf[24] = 0xff
		// Recompute nothing: the CRC now fails first, which is also an
		// acceptable rejection. Either way it must not decode.
		if _, err := DecodeEstimateRequest(lyingBuf, nil); err == nil {
			t.Fatal("accepted rows/cols inconsistent with payload")
		}
	})
	t.Run("unknown request flags", func(t *testing.T) {
		plain := &EstimateRequest{Readings: [][]float64{{1, 2}}}
		buf, err := AppendEstimateRequest(nil, plain)
		if err != nil {
			t.Fatal(err)
		}
		// flags live at payload offset 0 → frame offset 16. Set an unknown
		// bit and patch the CRC so the flag check itself is exercised.
		for _, bit := range []byte{0x02, 0x80} { // 0x02 was the retired QR arm
			bad := append([]byte(nil), buf...)
			bad[16] |= bit
			recrc(bad, bad[16:len(bad)-4])
			if _, err := DecodeEstimateRequest(bad, nil); err == nil {
				t.Fatalf("accepted unknown flag %#x", bit)
			}
		}
	})
	t.Run("batch shapes beyond payload", func(t *testing.T) {
		for name, f := range hostileBatchFrames() {
			var err error
			if strings.HasPrefix(name, "estimate") {
				_, err = DecodeEstimateRequest(f, nil)
			} else {
				_, err = DecodeGovernRequest(f, nil)
			}
			if err == nil || !strings.Contains(err.Error(), "do not fit") {
				t.Errorf("%s: err = %v, want a batch-shape rejection", name, err)
			}
		}
		// An empty batch stays well-formed: the daemon answers it with
		// empty_batch, not a frame error.
		req, err := DecodeEstimateRequest(frame(reqMagic, u32s(0, 0, 0, 0)), nil)
		if err != nil || len(req.Readings) != 0 {
			t.Fatalf("empty batch: %v, %v", req, err)
		}
	})
	t.Run("map length beyond payload", func(t *testing.T) {
		bad := append([]byte(nil), goodResp...)
		// map_len of summary 0 lives at payload offset 4+4+28 → frame 16+36.
		bad[52] = 0xf0
		payload := bad[16 : len(bad)-4]
		recrc(bad, payload)
		if _, _, err := DecodeEstimateResponse(bad); err == nil {
			t.Fatal("accepted map length beyond payload")
		}
	})
}

// recrc rewrites the trailing CRC of a frame after a test mutated its
// payload, so validation deeper than the checksum is reachable.
func recrc(frame, payload []byte) {
	c := crc32.ChecksumIEEE(payload)
	frame[len(frame)-4] = byte(c)
	frame[len(frame)-3] = byte(c >> 8)
	frame[len(frame)-2] = byte(c >> 16)
	frame[len(frame)-1] = byte(c >> 24)
}

// frame wraps payload in a valid envelope (current version, correct CRC),
// so a test reaches the payload checks behind the checksum.
func frame(magic string, payload []byte) []byte {
	buf := appendHeader(nil, magic, len(payload))
	start := len(buf)
	return appendCRC(append(buf, payload...), start)
}

// u32s renders words as consecutive uint32 LE.
func u32s(words ...uint32) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// hostileBatchFrames are request frames whose declared batch shape does
// not match their payload: rows×cols that wraps a native-int size check
// (rows = 2³¹, cols = 2³⁰: 8·rows·cols ≡ 0 mod 2⁶⁴) and millions of empty
// rows carried by no bytes at all. The estimate payload is flags, a
// reserved word, rows, cols; the govern payload is flags (no config),
// rows, cols.
func hostileBatchFrames() map[string][]byte {
	return map[string][]byte{
		"estimate overflowing shape": frame(reqMagic, u32s(0, 0, 1<<31, 1<<30)),
		"estimate empty rows":        frame(reqMagic, u32s(0, 0, 5_000_000, 0)),
		"govern overflowing shape":   frame(governReqMagic, u32s(0, 1<<31, 1<<30)),
		"govern empty rows":          frame(governReqMagic, u32s(0, 5_000_000, 0)),
	}
}

func BenchmarkAppendEstimateRequest(b *testing.B) {
	req := &EstimateRequest{Readings: make([][]float64, 64)}
	for i := range req.Readings {
		req.Readings[i] = make([]float64, 8)
		for j := range req.Readings[i] {
			req.Readings[i][j] = 60 + float64(i)*0.1 + float64(j)
		}
	}
	buf, err := AppendEstimateRequest(nil, req)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AppendEstimateRequest(buf[:0], req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeEstimateRequest(b *testing.B) {
	req := &EstimateRequest{Readings: make([][]float64, 64)}
	for i := range req.Readings {
		req.Readings[i] = make([]float64, 8)
		for j := range req.Readings[i] {
			req.Readings[i][j] = 60 + float64(i)*0.1 + float64(j)
		}
	}
	buf, err := AppendEstimateRequest(nil, req)
	if err != nil {
		b.Fatal(err)
	}
	scratch := &ReadingsBuf{}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEstimateRequest(buf, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
