// Package obs is the serving layer's flight recorder: per-request traces
// with per-stage spans, fixed-size ring buffers of recent and slowest
// requests, and sharded histograms for the metrics hot path.
//
// The daemon's request loop allocates one Trace per request, anchors it on a
// monotonic clock, and hands it down the serving path; each stage — decode,
// shard routing, page-in, the GEMM solve, drift scoring, adaptation,
// governing, encode — records its span against that anchor. A finished
// trace lands in a Ring (recent requests, the top-N slowest and the
// per-stage histograms) and renders as a Server-Timing header, so one
// request's cost breaks down identically in /metrics, in the client's
// response headers, and in the /v1/debug/requests waterfall.
//
// Everything on the request path is nil-safe and waits on no global lock:
// a latency observation is a handful of sharded atomic adds, a finished
// trace goes into its ring slot and its spans into the stage histograms
// under one of eight ring locks, which a debug reader only ever tries,
// and every Trace method no-ops on a nil receiver so an untraced (or
// deliberately stripped) request pays nothing but the nil checks.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
	"time"
)

// Stage identifies one segment of the serving path. The values are the
// span slots of a Trace: each stage occurs at most once per request (a
// repeat accumulates into the same slot), so a trace is one fixed-size
// array with no per-span allocation.
type Stage uint8

// The serving path's stages, in request order.
const (
	// StageDecode is request-body parsing: the JSON fast scanner or the
	// binary frame decode.
	StageDecode Stage = iota
	// StageShardRoute is monitor routing: the shard-ownership check and the
	// registry lookup.
	StageShardRoute
	// StagePageIn is the store read that rebuilds an evicted monitor's
	// serving state, including any wait on a concurrent page-in.
	StagePageIn
	// StageSolve is the reconstruction itself: the blocked GEMM against the
	// precomputed operator, or the Kalman step on the track route.
	StageSolve
	// StageDriftScore is the residual scoring that stamps the response's
	// quality verdict.
	StageDriftScore
	// StageAdapt is shadow-basis absorption and any hot-swap triggered by an
	// out-of-distribution batch.
	StageAdapt
	// StageGovern is the closed-loop control step on the govern route:
	// per-core temperature extraction and the policy's cap decisions.
	StageGovern
	// StageEncode is response rendering: summaries plus the JSON or binary
	// encode and the body write.
	StageEncode

	// NumStages is the span-slot count; valid stages are < NumStages.
	NumStages
)

var stageNames = [NumStages]string{
	"decode", "shard_route", "page_in",
	"solve", "drift_score", "adapt", "govern", "encode",
}

// String returns the stage's snake_case label, as used in histogram labels,
// Server-Timing entries and debug waterfalls.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "stage_" + strconv.Itoa(int(s))
}

// Span is one recorded stage: its offset from the trace start and its
// duration, both from the trace's monotonic anchor.
type Span struct {
	Stage  Stage
	Offset time.Duration
	Dur    time.Duration
}

// spanRec is a span's in-trace storage: the stage is the array index, so
// storing it would waste a padded word per slot — the trace is copied into
// the flight-recorder ring whole, and 64 fewer bytes is 64 fewer bytes on
// every request.
type spanRec struct {
	Offset time.Duration
	Dur    time.Duration
}

// Trace is one request's flight record. It is owned by the request
// goroutine while live (no internal locking) and becomes immutable at
// Finish, after which it may be published to a Ring and read concurrently.
// All methods are nil-safe no-ops, so call sites need no instrumentation
// guards.
type Trace struct {
	// ID is the request id: the client's X-Request-Id or a generated one.
	ID string
	// Route is the metrics route label the dispatcher resolved.
	Route string
	// Monitor is the target monitor id ("" for non-monitor routes).
	Monitor string
	// Wall is the wall-clock arrival time, for display only; spans and Dur
	// are measured against the monotonic anchor taken at the same instant.
	Wall time.Time
	// Status and Bytes are the response status code and body size.
	Status int
	Bytes  int
	// Dur is the request wall time, set by Finish.
	Dur time.Duration

	start     time.Time
	last      time.Duration // cursor: end offset of the last recorded span
	lastStage Stage         // stage that advanced the cursor last
	tail      uint8         // stage+1 to attribute the Finish tail to; 0 = fold
	spans     [NumStages]spanRec
	used      uint32 // bitmask of recorded stages
}

// Reset re-anchors t as a fresh trace for one request. The serving path
// embeds the Trace in its per-request writer state and Resets it in place,
// so tracing adds no allocation of its own — the flight recorder stores
// copies (Ring slots and the slowest list hold values), making the
// per-request object pure scratch.
func (t *Trace) Reset(id string, now time.Time) {
	if now.IsZero() {
		now = time.Now()
	}
	*t = Trace{ID: id, Wall: now, start: now}
}

// Mark records stage st as everything since the end of the last recorded
// span (or the trace start) using a single monotonic clock read, then
// advances the cursor. The serving path is instrumented as a chain of
// Marks: the glue between stages is attributed to the stage that follows
// it, which keeps waterfall coverage near 100% at one clock read per
// stage — clock reads are the dominant cost of tracing on virtualized
// hosts.
func (t *Trace) Mark(st Stage) {
	if t == nil {
		return
	}
	now := time.Since(t.start)
	t.record(st, t.last, now-t.last)
}

// Tail declares that everything between the last recorded span and the
// request's end belongs to stage st: Finish records that remainder as st's
// span using the request duration it already holds, so the final stage of
// a request — response encode and the body write — is attributed with zero
// additional clock reads. Clock reads are the dominant cost of tracing on
// virtualized hosts, so the hot path marks interior stage boundaries and
// declares the last stage instead of stamping it.
func (t *Trace) Tail(st Stage) {
	if t == nil || st >= NumStages {
		return
	}
	t.tail = uint8(st) + 1
}

func (t *Trace) record(st Stage, offset, dur time.Duration) {
	if st >= NumStages {
		return
	}
	if dur < 0 {
		dur = 0
	}
	bit := uint32(1) << st
	if t.used&bit == 0 {
		t.used |= bit
		t.spans[st] = spanRec{Offset: offset, Dur: dur}
	} else {
		// Repeat occurrence (e.g. the body write folding into encode):
		// accumulate the duration, keep the first offset so the waterfall
		// stays ordered.
		t.spans[st].Dur += dur
	}
	// Advance the cursor so a following Mark starts where this span ended.
	if end := offset + dur; end > t.last {
		t.last = end
		t.lastStage = st
	}
}

// Finish seals the trace with the response status, size and total duration
// (the caller usually has the duration already; pass <= 0 to measure here).
// The tail between the last recorded span and the request end — the body
// write and response bookkeeping — is recorded as the stage declared by
// Tail, or folded into the last recorded span when none was declared:
// either way it costs no extra clock read and the waterfall accounts for
// the full wall time. (The Server-Timing header is emitted at WriteHeader,
// before Finish runs, so it carries only the interior stages; the
// flight-recorder view is complete.) After Finish the trace must not be
// mutated.
func (t *Trace) Finish(status, bytes int, dur time.Duration) {
	if t == nil {
		return
	}
	t.Status = status
	t.Bytes = bytes
	if dur <= 0 {
		dur = time.Since(t.start)
	}
	t.Dur = dur
	if tail := dur - t.last; tail > 0 {
		if t.tail != 0 {
			t.record(Stage(t.tail-1), t.last, tail)
		} else if t.used != 0 {
			t.spans[t.lastStage].Dur += tail
			t.last = dur
		}
	}
}

// Spans returns the recorded stages in path order (the Stage order, which
// is also non-decreasing offset order for a sequential request). The slice
// is freshly allocated; the trace is not touched.
func (t *Trace) Spans() []Span {
	if t == nil || t.used == 0 {
		return nil
	}
	out := make([]Span, 0, NumStages)
	for st := Stage(0); st < NumStages; st++ {
		if t.used&(1<<st) != 0 {
			out = append(out, Span{Stage: st, Offset: t.spans[st].Offset, Dur: t.spans[st].Dur})
		}
	}
	return out
}

// StageTotal returns the summed duration of all recorded spans — the
// attributed share of the request's wall time.
func (t *Trace) StageTotal() time.Duration {
	if t == nil {
		return 0
	}
	var sum time.Duration
	for st := Stage(0); st < NumStages; st++ {
		if t.used&(1<<st) != 0 {
			sum += t.spans[st].Dur
		}
	}
	return sum
}

// ServerTiming renders the recorded spans as a Server-Timing header value
// (`decode;dur=0.126, solve;dur=1.5`). It is hand-rolled rather than built
// on Spans + strconv.FormatFloat because it runs on every traced response:
// a single pass over the span array with integer microsecond math, no
// intermediate slices, and no float formatting.
func (t *Trace) ServerTiming() string {
	if t == nil || t.used == 0 {
		return ""
	}
	// Sized for the common three-to-five span trace; a request that hits
	// every stage regrows once.
	b := make([]byte, 0, 96)
	for st := Stage(0); st < NumStages; st++ {
		if t.used&(1<<st) == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ", "...)
		}
		b = append(b, stageNames[st]...)
		b = append(b, ";dur="...)
		b = appendMS(b, t.spans[st].Dur)
	}
	return string(b)
}

// appendMS appends d as decimal milliseconds with microsecond precision,
// trailing zeros trimmed: 1.5ms -> "1.5", 7µs -> "0.007", 0 -> "0".
func appendMS(b []byte, d time.Duration) []byte {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b = strconv.AppendInt(b, us/1000, 10)
	if frac := us % 1000; frac != 0 {
		s := [4]byte{'.', byte('0' + frac/100), byte('0' + frac/10%10), byte('0' + frac%10)}
		n := len(s)
		for s[n-1] == '0' {
			n--
		}
		b = append(b, s[:n]...)
	}
	return b
}

// idPrefix makes generated ids unique across daemon restarts; idSeq makes
// them unique within a process. The prefix is always 8 characters so every
// generated id has the same width.
var (
	idPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Degrade to a fixed prefix: ids stay unique per process via the
			// sequence number.
			return "emapsd00"
		}
		return hex.EncodeToString(b[:])
	}()
	idSeq   atomic.Uint64
	idBlock atomic.Pointer[idBlockT]
)

const (
	// idWidth is every generated id's length: the 8-char prefix, a dash,
	// and 12 fixed-width hex digits of the process-wide sequence.
	idWidth = 8 + 1 + 12
	// idsPerBlock is how many ids are rendered per shared backing string.
	idsPerBlock = 256
)

// idBlockT is one pre-rendered batch of ids: a single backing string that
// idsPerBlock generated ids slice into. Substrings share the backing, so
// handing out an id is an atomic increment and a bounds-checked slice —
// the string allocation is paid once per block instead of once per
// request. The trade: any single id kept alive (say, in the slowest-list)
// pins its whole ~5KB block; with bounded trace retention that is bounded
// too, and far cheaper than a per-request allocation on the serving path.
type idBlockT struct {
	s string
	n atomic.Int64 // ids handed out of this block
}

const hexDigits = "0123456789abcdef"

func buildIDBlock() *idBlockT {
	base := idSeq.Add(idsPerBlock) - idsPerBlock
	b := make([]byte, 0, idWidth*idsPerBlock)
	for i := uint64(0); i < idsPerBlock; i++ {
		b = append(b, idPrefix...)
		b = append(b, '-')
		seq := base + i
		for shift := 44; shift >= 0; shift -= 4 {
			b = append(b, hexDigits[(seq>>uint(shift))&0xf])
		}
	}
	return &idBlockT{s: string(b)}
}

// NewID generates a request id: a per-process random prefix plus a
// fixed-width sequence number, sliced out of a pre-rendered block. It runs
// once per request that arrives without an X-Request-Id, so the per-call
// cost is an atomic add and a substring — no allocation.
func NewID() string {
	for {
		blk := idBlock.Load()
		if blk != nil {
			if i := blk.n.Add(1) - 1; i < idsPerBlock {
				off := int(i) * idWidth
				return blk.s[off : off+idWidth]
			}
		}
		// Block exhausted (or first call): render the next one. A lost
		// CAS race wastes a block's worth of sequence values, never
		// uniqueness — the loop re-reads the winner's block.
		idBlock.CompareAndSwap(blk, buildIDBlock())
	}
}
