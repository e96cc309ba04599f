package main

import (
	"bytes"
	"encoding/json"
	"strconv"

	"repro/internal/wire"
)

// Reflection-free JSON fast paths for the serving hot routes. The CPU
// profile of the estimate handler is dominated by encoding/json's reflective
// decode of the readings array and encode of the summary list — more than
// the batched GEMM itself — so the estimate, track and govern routes walk
// their request bodies by hand and render their responses by hand.
// Anything the walker does not recognize (unknown keys, escapes, non-numeric
// tokens, nulls, malformed nesting) falls back to encoding/json, which
// remains the semantic authority: the fast path claims only documents
// encoding/json accepts, and decodes them to the same values.

// readingsBuf is pooled scratch parse state (part of serveScratch): all
// numbers land in one flat slice (grown once, reused across requests) and
// rows are rebuilt as subslices after the parse, so a steady-state request
// allocates nothing.
type readingsBuf struct {
	flat []float64
	ends []int // ends[i] = index into flat one past row i's last value
	rows [][]float64
}

// readingsAt scans the [[...]...] value starting at i into b, replacing
// any batch an earlier duplicate key left there, and returns the index just
// past the value (with trailing whitespace consumed). It is the "readings"
// value parser of every route on the walker.
func (b *readingsBuf) readingsAt(data []byte, i int) (int, bool) {
	b.flat = b.flat[:0]
	b.ends = b.ends[:0]
	if i >= len(data) || data[i] != '[' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return skipSpace(data, i+1), true // empty batch: valid, zero rows
	}
	for {
		if i >= len(data) || data[i] != '[' {
			return 0, false
		}
		i = skipSpace(data, i+1)
		if i < len(data) && data[i] == ']' {
			i = skipSpace(data, i+1)
		} else {
			for {
				v, j, ok := parseNumber(data, i)
				if !ok {
					return 0, false
				}
				b.flat = append(b.flat, v)
				i = skipSpace(data, j)
				if i >= len(data) {
					return 0, false
				}
				if data[i] == ',' {
					i = skipSpace(data, i+1)
					continue
				}
				if data[i] == ']' {
					i = skipSpace(data, i+1)
					break
				}
				return 0, false
			}
		}
		b.ends = append(b.ends, len(b.flat))
		if i >= len(data) {
			return 0, false
		}
		if data[i] == ',' {
			i = skipSpace(data, i+1)
			continue
		}
		if data[i] == ']' {
			return skipSpace(data, i+1), true
		}
		return 0, false
	}
}

// buildRows materializes row headers over the flat storage. Only called once
// flat can no longer reallocate.
func (b *readingsBuf) buildRows() [][]float64 {
	b.rows = b.rows[:0]
	start := 0
	for _, end := range b.ends {
		b.rows = append(b.rows, b.flat[start:end:end])
		start = end
	}
	return b.rows
}

// walkObject is the one request-body walker behind every JSON route's fast
// path. It scans data as a single object whose keys carry no escape
// sequences, handing each key and the index of its value to value, which
// returns the index just past the value (trailing whitespace consumed).
// Any structural surprise, or a value the route's parser does not claim,
// returns false: the route then defers the whole body to encoding/json,
// which stays the authority on every document the walker does not claim.
// A repeated key reaches value again, so the last one wins, as in
// encoding/json.
func walkObject(data []byte, value func(key []byte, i int) (int, bool)) bool {
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return skipSpace(data, i+1) == len(data)
	}
	for {
		if i >= len(data) || data[i] != '"' {
			return false
		}
		j := i + 1
		for j < len(data) && data[j] != '"' && data[j] != '\\' {
			j++
		}
		if j >= len(data) || data[j] != '"' {
			return false
		}
		key := data[i+1 : j]
		i = skipSpace(data, j+1)
		if i >= len(data) || data[i] != ':' {
			return false
		}
		var ok bool
		if i, ok = value(key, skipSpace(data, i+1)); !ok || i >= len(data) {
			return false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return skipSpace(data, i+1) == len(data)
		default:
			return false
		}
	}
}

// parseRequest is the fast path of every JSON route: a body whose keys are
// readings and the route's own option, include_maps on estimate and track,
// config on govern. Absent readings decode as an empty batch. The config
// object (a dozen scalars, absent on steady-state requests) goes through
// encoding/json, which also finds where it ends; a repeated config merges
// into the first, as encoding/json decodes into a non-nil pointer.
// ok=false defers the whole body to decodeJSON.
func (b *readingsBuf) parseRequest(data []byte, govern bool) (rows [][]float64, includeMaps bool, cfg *wire.GovernConfig, ok bool) {
	b.flat, b.ends = b.flat[:0], b.ends[:0]
	ok = walkObject(data, func(key []byte, i int) (int, bool) {
		switch {
		case string(key) == "readings":
			return b.readingsAt(data, i)
		case string(key) == "include_maps" && !govern:
			switch {
			case hasPrefixAt(data, i, "true"):
				includeMaps = true
				return skipSpace(data, i+4), true
			case hasPrefixAt(data, i, "false"):
				includeMaps = false
				return skipSpace(data, i+5), true
			}
		case string(key) == "config" && govern:
			next := cfg
			dec := json.NewDecoder(bytes.NewReader(data[i:]))
			if dec.Decode(&next) != nil {
				return 0, false
			}
			cfg = next
			return skipSpace(data, i+int(dec.InputOffset())), true
		}
		return 0, false
	})
	if !ok {
		return nil, false, nil, false
	}
	return b.buildRows(), includeMaps, cfg, true
}

// decodeJSON decodes a body the walker did not claim (escapes, unknown
// keys, non-numeric tokens, nulls, malformed JSON) through encoding/json,
// the authority on such bodies, which also reports its error. It decodes
// only the route's own keys, so a key the route ignores cannot fail it,
// and unknown keys such as the retired "workers" stay ignored. It is a
// function of its own so that the fallback's addresses do not move the
// fast path's results to the heap on every request.
func decodeJSON(data []byte, govern bool) (rows [][]float64, includeMaps bool, cfg *wire.GovernConfig, err error) {
	var readings json.RawMessage
	if govern {
		var req struct {
			Readings json.RawMessage    `json:"readings"`
			Config   *wire.GovernConfig `json:"config"`
		}
		err = json.Unmarshal(data, &req)
		readings, cfg = req.Readings, req.Config
	} else {
		var req struct {
			Readings    json.RawMessage `json:"readings"`
			IncludeMaps bool            `json:"include_maps"`
		}
		err = json.Unmarshal(data, &req)
		readings, includeMaps = req.Readings, req.IncludeMaps
	}
	if err == nil && len(readings) > 0 {
		// A fresh decode of the last readings value: encoding/json would
		// decode a repeated key into the rows the first one left.
		err = json.Unmarshal(readings, &rows)
	}
	return rows, includeMaps, cfg, err
}

func hasPrefixAt(data []byte, i int, s string) bool {
	return len(data)-i >= len(s) && string(data[i:i+len(s)]) == s
}

func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// appendEstimateResponse renders {"quality":"...","results":[...]} without
// reflection. The quality field comes first so clients (and emapsload's
// counter) can classify a response from its fixed-offset prefix without
// parsing the body. Its numbers are appendNumber's, strconv's shortest
// round-trip 'g' form, which can differ from encoding/json's only in
// exponent styling (1e-05 vs 0.00001); clients decode bit-identical
// float64 values either way.
func appendEstimateResponse(buf []byte, results []snapshotSummary, quality string) []byte {
	return append(appendResults(buf, results, quality), '}', '\n')
}

// appendTrackResponse renders the track reply: the estimate reply's fields,
// then the tracker's step count and tr(P), in the same number style.
func appendTrackResponse(buf []byte, results []snapshotSummary, quality string, steps int, uncertainty float64) []byte {
	buf = appendResults(buf, results, quality)
	buf = append(buf, `,"steps":`...)
	buf = strconv.AppendInt(buf, int64(steps), 10)
	buf = append(buf, `,"uncertainty":`...)
	buf = appendNumber(buf, uncertainty)
	return append(buf, '}', '\n')
}

// appendResults renders {"quality":"...","results":[...] — the shared,
// unclosed head of the estimate and track replies. Every float goes
// through appendNumber, whose bytes are strconv.AppendFloat(v, 'g', -1,
// 64)'s: the shortest decimal that reads back as v, the closest to v among
// those, ties to even, written as %e when its decimal exponent is below −4
// or at least 6 (1e-05, 1e+06) and as %f otherwise. The govern reply's
// floats go through it too, so every float of every JSON reply keeps
// strconv's bytes (TestServedBytesPinned).
func appendResults(buf []byte, results []snapshotSummary, quality string) []byte {
	buf = append(buf, `{"quality":"`...)
	buf = append(buf, quality...)
	buf = append(buf, `","results":[`...)
	for i := range results {
		if i > 0 {
			buf = append(buf, ',')
		}
		r := &results[i]
		buf = append(buf, `{"max_c":`...)
		buf = appendNumber(buf, r.MaxC)
		buf = append(buf, `,"min_c":`...)
		buf = appendNumber(buf, r.MinC)
		buf = append(buf, `,"mean_c":`...)
		buf = appendNumber(buf, r.MeanC)
		buf = append(buf, `,"max_cell":`...)
		buf = strconv.AppendInt(buf, int64(r.MaxCell), 10)
		// len, not nil: mirrors the struct tag's omitempty, which drops
		// empty slices whether or not they are nil.
		if len(r.Map) > 0 {
			buf = append(buf, `,"map":[`...)
			for k, v := range r.Map {
				if k > 0 {
					buf = append(buf, ',')
				}
				buf = appendNumber(buf, v)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, '}')
	}
	return append(buf, ']')
}
