package thermal

import (
	"container/list"
	"sync"

	"repro/internal/floorplan"
	"repro/internal/mat"
)

// factorCacheBytes bounds the banded factors the process keeps across
// models. The two grids of a provisioning mix, t1 at 60×56 (2 × 12.5 MB of
// panels) and manycore-256c at 32×32 (2 × 2.2 MB), fit with room for the
// small fleet grids; the largest grid the daemon admits, about 90×91,
// needs about 96 MB on its own and is factored per model instead.
const factorCacheBytes = 64 << 20

// factors is the process's factor cache, which NewModel consults.
var factors = newFactorCache(factorCacheBytes)

// factorKey identifies the two banded systems a model factors. A = C/dt + G
// and G are assembled from the grid and from every Config field except
// the ambient temperature and the leakage model, which enter only the
// right-hand sides, so those two are cleared and models that differ only
// in them share one factorization.
type factorKey struct {
	grid floorplan.Grid
	cfg  Config
}

func newFactorKey(g floorplan.Grid, cfg Config) factorKey {
	cfg.AmbientC, cfg.Leakage = 0, nil
	return factorKey{grid: g, cfg: cfg}
}

// factorPair is one key's factorizations of A and G, computed once. A
// failed factorization is kept with its error, like a model's own.
type factorPair struct {
	once       sync.Once
	key        factorKey
	facA, facG *mat.BandCholesky
	errA, errG error
	bytes      int  // memory of both factors, counted once admitted
	admitted   bool // counted in the cache's bytes
}

// factorCache keeps factorPairs by key, least recently used first out,
// within a byte budget. A BandCholesky is immutable, so a cached pair is
// shared read-only by every model of its key, as one model's factors are
// shared by its Transients; an evicted pair lives on in the models that
// hold it. Concurrent first uses of a key wait on one factorization.
type factorCache struct {
	budget int

	mu     sync.Mutex
	byKey  map[factorKey]*list.Element
	lru    list.List // of *factorPair, most recently used at the front
	bytes  int       // memory of the admitted pairs
	builds int       // factorizations run through the cache
}

func newFactorCache(budget int) *factorCache {
	return &factorCache{budget: budget, byKey: make(map[factorKey]*list.Element)}
}

// pair returns the factorizations for key, running build for the first
// use. With a nil cache, or a key that holds a NaN (and so never equals
// itself), build runs for this caller alone.
func (c *factorCache) pair(key factorKey, build func() (facA, facG *mat.BandCholesky, errA, errG error)) *factorPair {
	if c == nil || key != key {
		p := &factorPair{key: key}
		p.facA, p.facG, p.errA, p.errG = build()
		return p
	}
	c.mu.Lock()
	e, ok := c.byKey[key]
	if ok {
		c.lru.MoveToFront(e)
	} else {
		e = c.lru.PushFront(&factorPair{key: key})
		c.byKey[key] = e
	}
	p := e.Value.(*factorPair)
	c.mu.Unlock()
	p.once.Do(func() {
		p.facA, p.facG, p.errA, p.errG = build()
		for _, f := range []*mat.BandCholesky{p.facA, p.facG} {
			if f != nil {
				p.bytes += f.Bytes()
			}
		}
		c.admit(p)
	})
	return p
}

// admit counts a freshly factored pair against the budget and evicts the
// least recently used pairs until the cache fits. A failed factorization,
// or a pair larger than the whole budget, is not kept.
func (c *factorCache) admit(p *factorPair) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.builds++
	e, ok := c.byKey[p.key]
	if !ok || e.Value != p {
		return // evicted while it was factored
	}
	if p.errA != nil || p.errG != nil || p.bytes > c.budget {
		c.remove(e)
		return
	}
	p.admitted = true
	c.bytes += p.bytes
	for c.bytes > c.budget {
		c.remove(c.lru.Back())
	}
}

func (c *factorCache) remove(e *list.Element) {
	p := c.lru.Remove(e).(*factorPair)
	delete(c.byKey, p.key)
	if p.admitted {
		c.bytes -= p.bytes
	}
}
