package wire

import (
	"strconv"
	"strings"
)

// Request-id and stage-timing pass-through headers. These live in the wire
// package because both sides speak them: emapsd emits them, emapsload (and
// any other client) parses them, and the contract must not drift between
// the two binaries.
const (
	// HeaderRequestID carries the client-chosen request id into the daemon
	// and echoes the effective id (client's or generated) back on every
	// response. The same id appears in slog request lines, error envelopes,
	// and /v1/debug/requests traces.
	HeaderRequestID = "X-Request-Id"

	// HeaderServerTiming is the standard Server-Timing response header; the
	// daemon uses it to expose the per-stage latency breakdown of the
	// request that produced the response.
	HeaderServerTiming = "Server-Timing"
)

// Timing is one Server-Timing entry: a stage name and its duration in
// milliseconds.
type Timing struct {
	Name  string
	DurMS float64
}

// ParseServerTiming parses a Server-Timing header value back into timings.
// Entries without a dur parameter, or with one that does not parse, are
// skipped — the header is advisory and a partial read is better than none.
func ParseServerTiming(v string) []Timing {
	var out []Timing
	for _, entry := range strings.Split(v, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			continue
		}
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			val, ok := strings.CutPrefix(p, "dur=")
			if !ok {
				continue
			}
			dur, err := strconv.ParseFloat(val, 64)
			if err != nil {
				break
			}
			out = append(out, Timing{Name: name, DurMS: dur})
			break
		}
	}
	return out
}
