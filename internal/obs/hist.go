package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// histShards spreads the hot sum words across cache lines so concurrent
// observers on different cores don't serialize on one line. Bucket
// counters stay flat (one array) — they are already spread by value.
const histShards = 8

// histShard holds one shard's running sum, padded to a cache line so
// adjacent shards never share one. There is no count word: the total
// observation count is the sum of the buckets, so keeping a second counter
// would be one more atomic RMW per observation for redundant state.
type histShard struct {
	sumNanos atomic.Int64
	_        [56]byte
}

// Hist is a lock-free fixed-bucket latency histogram. Observation is one
// atomic add into a bucket plus one add into a duration-hashed sum shard;
// there is no mutex anywhere on the observe path. Snapshot is eventually
// consistent: concurrent observes may straddle it, which Prometheus-style
// cumulative scrapes tolerate by design.
type Hist struct {
	bounds  []float64 // upper bounds in seconds, ascending
	nanos   []int64   // the same bounds in integer nanoseconds, for Observe
	buckets []atomic.Int64
	shards  [histShards]histShard
}

// NewHist builds a histogram over the given ascending upper bounds (in
// seconds). The bounds slice is retained and must not be mutated.
func NewHist(bounds []float64) *Hist {
	nanos := make([]int64, len(bounds))
	for i, b := range bounds {
		nanos[i] = int64(b * 1e9)
	}
	return &Hist{bounds: bounds, nanos: nanos, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration. Safe for unbounded concurrency.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// Linear scan over integer-nanosecond bounds: bucket counts are small
	// (≈15) and the common case exits in the first few comparisons; a
	// branchy binary search (or float conversion) is no faster.
	i := 0
	for i < len(h.nanos) && int64(d) > h.nanos[i] {
		i++
	}
	h.buckets[i].Add(1)
	// Hash the duration's bits to pick a shard: free entropy, no counter
	// contention, and identical durations landing together is harmless.
	h.shards[(uint64(d)*0x9E3779B97F4A7C15)>>61].sumNanos.Add(int64(d))
}

// HistSnapshot is a point-in-time cumulative view of a Hist.
type HistSnapshot struct {
	Bounds     []float64 // upper bounds in seconds (shared, do not mutate)
	Cumulative []int64   // per-bound cumulative counts, len == len(Bounds)
	Count      int64     // total observations (the +Inf cumulative count)
	Sum        float64   // total observed seconds
}

// Snapshot folds the shards and buckets into a cumulative view. Count is
// the bucket total (including the implicit +Inf bucket), so _count always
// equals the +Inf cumulative bucket by construction.
func (h *Hist) Snapshot() HistSnapshot {
	snap := HistSnapshot{Bounds: h.bounds, Cumulative: make([]int64, len(h.bounds))}
	var run int64
	for i := range h.bounds {
		run += h.buckets[i].Load()
		snap.Cumulative[i] = run
	}
	snap.Count = run + h.buckets[len(h.bounds)].Load()
	var nanos int64
	for i := range h.shards {
		nanos += h.shards[i].sumNanos.Load()
	}
	snap.Sum = float64(nanos) / 1e9
	return snap
}

// maxCodeSlots bounds distinct status codes per route. The daemon emits a
// handful (200, 202, 400, 404, 409, 413, 421, 429, 500, 503); 16 slots
// leaves headroom and keeps the scan trivially cheap.
const maxCodeSlots = 16

// codeCounts is a lock-free set of per-status-code counters for one route.
// Slots are append-only: a published slot's code never changes, so readers
// load the published length and scan without locking. The mutex guards
// only slot allocation — the first request with a new code on a route.
type codeCounts struct {
	published atomic.Int32
	codes     [maxCodeSlots]int32
	counts    [maxCodeSlots]atomic.Int64
	mu        sync.Mutex
}

// inc bumps the counter for code, allocating a slot on first sight.
func (c *codeCounts) inc(code int) {
	n := int(c.published.Load())
	for i := 0; i < n; i++ {
		if int(c.codes[i]) == code {
			c.counts[i].Add(1)
			return
		}
	}
	c.mu.Lock()
	// Re-scan slots published while we waited for the lock.
	n = int(c.published.Load())
	for i := 0; i < n; i++ {
		if int(c.codes[i]) == code {
			c.mu.Unlock()
			c.counts[i].Add(1)
			return
		}
	}
	if n == maxCodeSlots {
		// Overflow: fold into the last slot rather than drop the request
		// from the count. Unreachable with the daemon's code set.
		c.mu.Unlock()
		c.counts[maxCodeSlots-1].Add(1)
		return
	}
	c.codes[n] = int32(code)
	c.counts[n].Add(1)
	c.published.Store(int32(n + 1))
	c.mu.Unlock()
}

// CodeCount is one status code's request count on a route.
type CodeCount struct {
	Code  int
	Count int64
}

// snapshot returns the route's code counts sorted by code.
func (c *codeCounts) snapshot() []CodeCount {
	n := int(c.published.Load())
	out := make([]CodeCount, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, CodeCount{Code: int(c.codes[i]), Count: c.counts[i].Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// RouteStats is one route's full instrumentation: a latency histogram and
// per-status-code counters. Both sides are lock-free to update.
type RouteStats struct {
	Latency *Hist
	codes   codeCounts
}

// ObserveCode bumps the route's counter for the given status code.
func (r *RouteStats) ObserveCode(code int) { r.codes.inc(code) }

// Codes returns the route's status-code counts sorted by code.
func (r *RouteStats) Codes() []CodeCount { return r.codes.snapshot() }

// Registry maps route labels to their stats. Lookup is a sync.Map load —
// lock-free after a route's first request. The route set is small and
// fixed (the dispatcher's label table), so the map stays in cache.
type Registry struct {
	bounds []float64
	m      sync.Map // string -> *RouteStats
}

// NewRegistry builds a registry whose histograms use the given bounds.
func NewRegistry(bounds []float64) *Registry {
	return &Registry{bounds: bounds}
}

// Route returns the stats for a label, creating them on first use.
func (g *Registry) Route(label string) *RouteStats {
	if v, ok := g.m.Load(label); ok {
		return v.(*RouteStats)
	}
	v, _ := g.m.LoadOrStore(label, &RouteStats{Latency: NewHist(g.bounds)})
	return v.(*RouteStats)
}

// RouteSnapshot is one route's stats in a Snapshot.
type RouteSnapshot struct {
	Label   string
	Latency HistSnapshot
	Codes   []CodeCount
}

// Snapshot returns all routes sorted by label, for deterministic scrapes.
func (g *Registry) Snapshot() []RouteSnapshot {
	var out []RouteSnapshot
	g.m.Range(func(k, v any) bool {
		rs := v.(*RouteStats)
		out = append(out, RouteSnapshot{Label: k.(string), Latency: rs.Latency.Snapshot(), Codes: rs.Codes()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}
