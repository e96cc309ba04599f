package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// traceRec is a finished trace packed for ring storage: spans quantized to
// microseconds in 32-bit words and the wall clock flattened to Unix
// nanoseconds. A full Trace is ~300 bytes — five cache lines that are
// always cold by construction, because consecutive requests write
// consecutive slots of a buffer far larger than L2. Halving the record
// halves the write misses on the only stretch of the publish path that
// cannot stay cache-warm. Microsecond span precision is what the debug
// API exposes anyway (milliseconds with three decimals).
type traceRec struct {
	id, route, monitor string
	wallNanos          int64
	dur                time.Duration
	status, bytes      int32
	used               uint32
	spans              [NumStages]spanUS
}

// spanUS is one packed span: offset and duration in microseconds.
type spanUS struct {
	Offset, Dur uint32
}

// usClamp quantizes a duration to microseconds, saturating at ~71 minutes
// — beyond any request the daemon would hold open.
func usClamp(d time.Duration) uint32 {
	us := d.Microseconds()
	if us < 0 {
		return 0
	}
	if us > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(us)
}

// pack flattens a sealed trace into ring storage.
func (r *traceRec) pack(t *Trace) {
	r.id, r.route, r.monitor = t.ID, t.Route, t.Monitor
	r.wallNanos = t.Wall.UnixNano()
	r.dur = t.Dur
	r.status, r.bytes = int32(t.Status), int32(t.Bytes)
	r.used = t.used
	for st := range r.spans {
		if t.used&(1<<st) != 0 {
			r.spans[st] = spanUS{Offset: usClamp(t.spans[st].Offset), Dur: usClamp(t.spans[st].Dur)}
		} else {
			r.spans[st] = spanUS{}
		}
	}
}

// unpack reconstructs a standalone read-only Trace.
func (r *traceRec) unpack() Trace {
	t := Trace{
		ID: r.id, Route: r.route, Monitor: r.monitor,
		Wall:   time.Unix(0, r.wallNanos),
		Status: int(r.status), Bytes: int(r.bytes),
		Dur:  r.dur,
		used: r.used,
	}
	for st := range t.spans {
		if r.used&(1<<st) != 0 {
			t.spans[st] = spanRec{
				Offset: time.Duration(r.spans[st].Offset) * time.Microsecond,
				Dur:    time.Duration(r.spans[st].Dur) * time.Microsecond,
			}
		}
	}
	return t
}

// ringSlot is one recent-trace cell: a packed trace, guarded by the ring
// lock its index maps to. Storing values rather than pointers keeps
// published traces out of the garbage collector's object graph and lets
// the request path recycle its Trace through a pool — the flight recorder
// owns fixed storage, the request owns a scratch object.
type ringSlot struct {
	full bool
	t    traceRec
}

// ringLocks is how many locks the slots and the stage histograms are
// spread over; consecutive slots take different ones.
const ringLocks = 8

// ringLock guards every ringLocks-th slot and its share of the stage
// histograms, padded so that adjacent locks do not share a cache line.
type ringLock struct {
	mu sync.Mutex
	// counts holds bucket b of stage st at b·NumStages + st: a request's
	// spans mostly share a bucket, and so one cache line.
	counts []int64
	sums   [NumStages]int64
	_      [32]byte
}

// Ring is the flight recorder: a circular buffer of the most recent
// finished traces, a small mutex-guarded list of the slowest ones seen,
// and the per-stage latency histograms. Record takes the lock of the slot
// it claimed, copies the trace in and adds its spans to that lock's share
// of the histograms, so one lock round trip per request does both.
// Readers only try a slot's lock and skip the slot when it is held, so a
// debug view never waits on the serving path; the serving path waits at
// most for one slot copy.
//
// The slowest list's mutex is kept off the hot path by an atomic
// threshold: once the list is full, a request only takes the lock if it
// is actually slower than the current floor, so steady-state traffic
// never contends on it.
type Ring struct {
	slots []ringSlot
	head  atomic.Uint64
	locks [ringLocks]ringLock

	bounds []float64 // stage histogram upper bounds in seconds, ascending
	nanos  []int64   // the same bounds in integer nanoseconds

	topN    int
	slowMin atomic.Int64 // floor (ns) for entering slowest; 0 until full
	mu      sync.Mutex
	slowest []traceRec // sorted slowest-first, len <= topN
}

// NewRing builds a ring keeping the last `recent` traces and the `topN`
// slowest, with stage histograms over stageBounds (ascending upper bounds
// in seconds; the slice is retained and must not be mutated).
func NewRing(recent, topN int, stageBounds []float64) *Ring {
	if recent < 1 {
		recent = 1
	}
	if topN < 1 {
		topN = 1
	}
	r := &Ring{slots: make([]ringSlot, recent), topN: topN, bounds: stageBounds, nanos: NewHist(stageBounds).nanos}
	for i := range r.locks {
		r.locks[i].counts = make([]int64, int(NumStages)*(len(stageBounds)+1))
	}
	return r
}

// Record publishes a finished trace by value and adds its spans to the
// stage histograms. The trace must be sealed (Finish called); the caller
// keeps ownership and may recycle it once Record returns. Nil-safe on
// both sides.
func (r *Ring) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	i := (r.head.Add(1) - 1) % uint64(len(r.slots))
	l := &r.locks[i%ringLocks]
	l.mu.Lock()
	r.slots[i].t.pack(t)
	r.slots[i].full = true
	nb := int(NumStages)
	for st := Stage(0); st < NumStages; st++ {
		if t.used&(1<<st) == 0 {
			continue
		}
		d := max(int64(t.spans[st].Dur), 0)
		b := 0
		for b < len(r.nanos) && d > r.nanos[b] {
			b++
		}
		l.counts[b*nb+int(st)]++
		l.sums[st] += d
	}
	l.mu.Unlock()

	if int64(t.Dur) <= r.slowMin.Load() {
		return
	}
	r.mu.Lock()
	// Re-check under the lock: the floor may have risen while we waited.
	if len(r.slowest) == r.topN && t.Dur <= r.slowest[len(r.slowest)-1].dur {
		r.mu.Unlock()
		return
	}
	pos := sort.Search(len(r.slowest), func(i int) bool { return r.slowest[i].dur < t.Dur })
	if len(r.slowest) < r.topN {
		r.slowest = append(r.slowest, traceRec{})
	}
	copy(r.slowest[pos+1:], r.slowest[pos:])
	r.slowest[pos].pack(t)
	if len(r.slowest) == r.topN {
		r.slowMin.Store(int64(r.slowest[len(r.slowest)-1].dur))
	}
	r.mu.Unlock()
}

// Recent returns up to n of the most recently recorded traces, newest
// first, as independent copies. A slot mid-write (or overwritten during
// the copy) is skipped — a debug view prefers a gap to a torn record.
func (r *Ring) Recent(n int) []Trace {
	if r == nil || n < 1 {
		return nil
	}
	if n > len(r.slots) {
		n = len(r.slots)
	}
	head := r.head.Load()
	out := make([]Trace, 0, n)
	for k := uint64(0); k < uint64(len(r.slots)) && len(out) < n; k++ {
		// Walk backward from the most recently claimed slot. A slot being
		// written right now is skipped — a debug view prefers a gap to a
		// stall on the serving path.
		i := (head + uint64(len(r.slots)) - 1 - k) % uint64(len(r.slots))
		l, s := &r.locks[i%ringLocks], &r.slots[i]
		if !l.mu.TryLock() {
			continue
		}
		var cp traceRec
		full := s.full
		if full {
			cp = s.t
		}
		l.mu.Unlock()
		if full {
			out = append(out, cp.unpack())
		}
	}
	return out
}

// Slowest returns copies of the slowest traces seen, slowest first.
func (r *Ring) Slowest() []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Trace, len(r.slowest))
	for i := range r.slowest {
		out[i] = r.slowest[i].unpack()
	}
	r.mu.Unlock()
	return out
}

// StageSnapshot folds the locks' shares into one stage's cumulative
// histogram. Nil-safe.
func (r *Ring) StageSnapshot(st Stage) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	counts := make([]int64, len(r.bounds)+1)
	var nanos int64
	for i := range r.locks {
		l := &r.locks[i]
		l.mu.Lock()
		for b := range counts {
			counts[b] += l.counts[b*int(NumStages)+int(st)]
		}
		nanos += l.sums[st]
		l.mu.Unlock()
	}
	snap := HistSnapshot{Bounds: r.bounds, Cumulative: make([]int64, len(r.bounds))}
	var run int64
	for b := range r.bounds {
		run += counts[b]
		snap.Cumulative[b] = run
	}
	snap.Count = run + counts[len(r.bounds)]
	snap.Sum = float64(nanos) / 1e9
	return snap
}
