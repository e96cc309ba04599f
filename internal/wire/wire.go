// Package wire is the serving layer's binary protocol: a length-prefixed,
// checksummed request/response encoding for the estimate hot path, selected
// by clients with Content-Type: application/x-emaps. At >100k snapshots/s
// the JSON text codec — even the daemon's hand-rolled scanner — still pays
// to print and parse every float in decimal; this codec moves readings and
// summaries as raw float64 little-endian words instead, so a request body
// is one memcpy-shaped scan on both sides.
//
// # Envelopes
//
// Both directions reuse the internal/store EMST envelope idiom with their
// own magics:
//
//	magic   "EMRQ" (request) / "EMRS" (response)   4 bytes
//	version uint32 LE                              protocol version (2)
//	length  uint64 LE                              payload byte count
//	payload length bytes
//	crc     uint32 LE                              IEEE CRC-32 of the payload
//
// Request payload (all integers uint32 LE, floats float64 LE):
//
//	flags     uint32   bit 0 = include_maps; every other bit is rejected
//	reserved  uint32   written as 0, ignored on read (was workers)
//	rows      uint32   snapshots in the batch
//	cols      uint32   readings per snapshot (the batch is rectangular;
//	                   rows > 0 needs cols > 0)
//	readings  rows×cols float64, row-major
//
// Response payload:
//
//	flags     uint32   bits 0–1 = quality (0 ok, 1 drifting, 2 degraded)
//	count     uint32   summaries (== request rows)
//	per summary:
//	  max_c   float64
//	  min_c   float64
//	  mean_c  float64
//	  max_cell uint32
//	  map_len uint32   0 unless include_maps was set
//	  map     map_len float64
//
// The quality bits mirror the JSON protocol's "quality" field, so both
// protocols carry the same drift verdict per response. Frames of any other
// version, including the retired version 1, are rejected.
//
// Decoded values are bit-identical to the JSON path's: both protocols move
// the same float64s, one in decimal text, one in raw bits — which is what
// the cross-protocol parity test in cmd/emapsd pins.
//
// Error responses are NOT binary: a non-2xx status carries the daemon's
// uniform JSON error envelope regardless of the request protocol, so error
// handling is one code path for every client.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// ContentType is the MIME type that selects the binary protocol on the
// estimate route.
const ContentType = "application/x-emaps"

// Version is the protocol version this build writes and the only one it
// reads.
const Version = 2

const (
	reqMagic  = "EMRQ"
	respMagic = "EMRS"

	// maxPayload caps the declared payload length before any allocation, à
	// la internal/store: a corrupt or hostile length field must not drive a
	// multi-gigabyte make(). 64 MB is ~1M float64 readings per request —
	// far beyond any sane batch.
	maxPayload = 1 << 26

	flagIncludeMaps = 1 << 0

	// respQualityMask covers the quality bits of a version ≥ 2 response
	// flags word.
	respQualityMask = 0x3
)

// Quality is the drift verdict a response carries (bits 0–1 of the version 2
// response flags word), mirroring the JSON protocol's "quality" field.
type Quality uint32

// Response quality values, ordered by severity.
const (
	// QualityOK: the serving monitor's residuals match its calibration.
	QualityOK Quality = iota
	// QualityDrifting: the monitor has drifted; estimates still serve but
	// should be treated as reduced-fidelity while adaptation runs.
	QualityDrifting
	// QualityDegraded: residuals are far outside calibration; estimates are
	// suspect until the monitor adapts or is retrained.
	QualityDegraded
)

// String names the quality exactly as the JSON protocol spells it.
func (q Quality) String() string {
	switch q {
	case QualityOK:
		return "ok"
	case QualityDrifting:
		return "drifting"
	case QualityDegraded:
		return "degraded"
	}
	return fmt.Sprintf("Quality(%d)", uint32(q))
}

// Summary is one snapshot's digest, shared by the JSON and binary codecs
// (cmd/emapsd aliases its response struct to this type, so the two
// protocols cannot drift apart field-wise).
type Summary struct {
	MaxC    float64   `json:"max_c"`
	MinC    float64   `json:"min_c"`
	MeanC   float64   `json:"mean_c"`
	MaxCell int       `json:"max_cell"`
	Map     []float64 `json:"map,omitempty"`
}

// EstimateRequest is the decoded form of a binary estimate request.
type EstimateRequest struct {
	// Readings is the rows×cols batch; rows are subslices of one flat
	// allocation (or of a caller-provided ReadingsBuf).
	Readings [][]float64
	// IncludeMaps asks for full maps in each summary.
	IncludeMaps bool
}

// ReadingsBuf is reusable decode scratch: the flat readings storage and the
// row headers over it. A pooled ReadingsBuf makes steady-state binary
// decodes allocation-free, mirroring the JSON fast path's readingsBuf.
type ReadingsBuf struct {
	flat []float64
	rows [][]float64
}

// AppendEstimateRequest encodes req onto buf and returns the extended
// slice. All rows must have the same length; ragged batches cannot be
// expressed on the binary wire (the JSON protocol accepts them and rejects
// them downstream).
func AppendEstimateRequest(buf []byte, req *EstimateRequest) ([]byte, error) {
	rows := len(req.Readings)
	cols := 0
	if rows > 0 {
		cols = len(req.Readings[0])
	}
	for i, r := range req.Readings {
		if len(r) != cols {
			return nil, fmt.Errorf("wire: ragged batch (row %d has %d readings, row 0 has %d)", i, len(r), cols)
		}
	}
	var flags uint32
	if req.IncludeMaps {
		flags |= flagIncludeMaps
	}
	payloadLen := 4 + 4 + 4 + 4 + 8*rows*cols
	buf = appendHeader(buf, reqMagic, payloadLen)
	payloadStart := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // reserved
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cols))
	for _, r := range req.Readings {
		buf = appendFloats(buf, r)
	}
	return appendCRC(buf, payloadStart), nil
}

// DecodeEstimateRequest decodes one binary estimate request. scratch may be
// nil (the rows are then backed by a fresh allocation); passing a pooled
// ReadingsBuf makes the decode reuse its storage, and the request comes
// back by value, so such a decode allocates nothing. The returned request's
// rows alias scratch — recycle it only after the rows are dead.
func DecodeEstimateRequest(data []byte, scratch *ReadingsBuf) (EstimateRequest, error) {
	payload, err := checkEnvelope(data, reqMagic, "request")
	if err != nil {
		return EstimateRequest{}, err
	}
	if len(payload) < 16 {
		return EstimateRequest{}, fmt.Errorf("wire: request payload %d bytes, want at least 16", len(payload))
	}
	flags := binary.LittleEndian.Uint32(payload[0:4])
	if flags&^uint32(flagIncludeMaps) != 0 {
		return EstimateRequest{}, fmt.Errorf("wire: unknown request flags %#x", flags)
	}
	readings, err := decodeBatch(payload[8:], scratch)
	if err != nil {
		return EstimateRequest{}, err
	}
	return EstimateRequest{
		Readings:    readings,
		IncludeMaps: flags&flagIncludeMaps != 0,
	}, nil
}

// decodeBatch decodes the rows, cols and rows×cols readings that end every
// request payload. Each dimension is bounded by the bytes that carry the
// readings before the two are multiplied, so no declared shape can wrap
// the size check, and rows > 0 with cols = 0 is rejected: such a frame
// would cost a row header per declared row while carrying no readings, and
// no monitor has zero sensors. scratch may be nil; the rows alias it.
func decodeBatch(b []byte, scratch *ReadingsBuf) ([][]float64, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("wire: payload ends before its batch header")
	}
	rows := binary.LittleEndian.Uint32(b[0:4])
	cols := binary.LittleEndian.Uint32(b[4:8])
	body := b[8:]
	fits := uint64(len(body)) / 8
	if rows > 0 && (cols == 0 || uint64(cols) > fits) || uint64(rows) > fits ||
		8*uint64(rows)*uint64(cols) != uint64(len(body)) {
		return nil, fmt.Errorf("wire: %dx%d readings do not fit %d payload bytes", rows, cols, len(body))
	}
	n, c := int(rows)*int(cols), int(cols)
	if scratch == nil {
		scratch = &ReadingsBuf{}
	}
	if cap(scratch.flat) < n {
		scratch.flat = make([]float64, n)
	}
	flat := scratch.flat[:n]
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	scratch.rows = scratch.rows[:0]
	for i := 0; i < int(rows); i++ {
		scratch.rows = append(scratch.rows, flat[i*c:(i+1)*c:(i+1)*c])
	}
	return scratch.rows, nil
}

// AppendEstimateResponse encodes the summaries and the response quality onto
// buf and returns the extended slice — the binary twin of the daemon's
// hand-rendered JSON response.
func AppendEstimateResponse(buf []byte, results []Summary, quality Quality) []byte {
	payloadLen := 4 + 4
	for i := range results {
		payloadLen += 8 + 8 + 8 + 4 + 4 + 8*len(results[i].Map)
	}
	buf = appendHeader(buf, respMagic, payloadLen)
	payloadStart := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(quality)&respQualityMask)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(results)))
	for i := range results {
		r := &results[i]
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.MaxC))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.MinC))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.MeanC))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.MaxCell))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Map)))
		buf = appendFloats(buf, r.Map)
	}
	return appendCRC(buf, payloadStart)
}

// DecodeEstimateResponse decodes one binary estimate response.
func DecodeEstimateResponse(data []byte) ([]Summary, Quality, error) {
	payload, err := checkEnvelope(data, respMagic, "response")
	if err != nil {
		return nil, 0, err
	}
	if len(payload) < 8 {
		return nil, 0, fmt.Errorf("wire: response payload %d bytes, want at least 8", len(payload))
	}
	flags := binary.LittleEndian.Uint32(payload[0:4])
	if flags&^uint32(respQualityMask) != 0 {
		return nil, 0, fmt.Errorf("wire: unknown response flags %#x", flags)
	}
	count := binary.LittleEndian.Uint32(payload[4:8])
	off := 8
	if uint64(count) > uint64(len(payload)-off)/32 {
		return nil, 0, fmt.Errorf("wire: %d summaries do not fit a %d-byte payload", count, len(payload))
	}
	out := make([]Summary, count)
	for i := range out {
		if len(payload)-off < 32 {
			return nil, 0, fmt.Errorf("wire: response payload ends inside summary %d", i)
		}
		out[i].MaxC = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		out[i].MinC = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:]))
		out[i].MeanC = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16:]))
		out[i].MaxCell = int(binary.LittleEndian.Uint32(payload[off+24:]))
		mapLen := binary.LittleEndian.Uint32(payload[off+28:])
		off += 32
		if uint64(mapLen) > uint64(len(payload)-off)/8 {
			return nil, 0, fmt.Errorf("wire: summary %d claims a %d-cell map beyond the payload", i, mapLen)
		}
		if mapLen > 0 {
			m := make([]float64, mapLen)
			for j := range m {
				m[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8*j:]))
			}
			out[i].Map = m
			off += 8 * len(m)
		}
	}
	if off != len(payload) {
		return nil, 0, fmt.Errorf("wire: %d trailing response payload bytes", len(payload)-off)
	}
	return out, Quality(flags & respQualityMask), nil
}

// appendHeader writes the magic, version and payload length.
func appendHeader(buf []byte, magic string, payloadLen int) []byte {
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	return binary.LittleEndian.AppendUint64(buf, uint64(payloadLen))
}

// appendCRC appends the IEEE CRC-32 of buf[payloadStart:].
func appendCRC(buf []byte, payloadStart int) []byte {
	crc := crc32.ChecksumIEEE(buf[payloadStart:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// appendFloats writes fs as float64 LE words.
func appendFloats(buf []byte, fs []float64) []byte {
	for _, f := range fs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

// checkEnvelope validates magic, version, length and CRC, returning the
// payload slice (aliasing data).
func checkEnvelope(data []byte, magic, what string) ([]byte, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("wire: %s shorter than its 16-byte header", what)
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("wire: %s magic %q, want %q", what, data[:4], magic)
	}
	if version := binary.LittleEndian.Uint32(data[4:8]); version != Version {
		return nil, fmt.Errorf("wire: %s version %d (this build speaks %d)", what, version, Version)
	}
	length := binary.LittleEndian.Uint64(data[8:16])
	if length > maxPayload {
		return nil, fmt.Errorf("wire: %s payload length %d exceeds cap %d", what, length, int64(maxPayload))
	}
	if uint64(len(data)) != 16+length+4 {
		return nil, fmt.Errorf("wire: %s is %d bytes, envelope declares %d", what, len(data), 16+length+4)
	}
	payload := data[16 : 16+length]
	want := binary.LittleEndian.Uint32(data[16+length:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("wire: %s crc32 %08x, envelope says %08x", what, got, want)
	}
	return payload, nil
}
