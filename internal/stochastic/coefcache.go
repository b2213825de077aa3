package stochastic

import (
	"slices"
	"sync"
)

// GammaCoefCache memoizes GammaCorrection fits keyed by
// (gamma, degree) — the coefficient half of the cross-frame gamma
// cache. A ReSC or optical unit re-built for every frame of a video
// workload re-runs the 512-sample least-squares Bernstein fit each
// time; the fit depends on (gamma, degree) alone, so one cached
// polynomial serves every frame. The cache keeps at most
// gammaCoefCacheCap fits, evicting the oldest first, and keeps no
// failed fit. The zero value is ready to use and safe for concurrent
// callers.
//
// Cached polynomials share their coefficient slice across callers and
// must be treated as read-only, which every evaluator in this package
// already does.
type GammaCoefCache struct {
	mu sync.Mutex
	m  map[gammaCoefKey]*gammaCoefEntry
	// fifo holds m's entries oldest first.
	fifo []*gammaCoefEntry
}

// gammaCoefCacheCap bounds a GammaCoefCache: a client may ask for any
// gamma, and a kept fit costs its n+1 coefficients.
const gammaCoefCacheCap = 256

type gammaCoefKey struct {
	gamma  float64
	degree int
}

type gammaCoefEntry struct {
	key    gammaCoefKey
	once   sync.Once
	poly   BernsteinPoly
	maxErr float64
	err    error
}

// GammaCorrection returns the cached degree-n Bernstein approximation
// of x^gamma, fitting it on first use — identical to the package-level
// GammaCorrection (errors included). The per-entry build runs outside
// the cache lock, so concurrent misses on distinct keys fit in
// parallel while a shared key is fitted exactly once. A failed fit is
// returned to the callers waiting on it and then dropped, so the next
// call fits again.
func (c *GammaCoefCache) GammaCorrection(gamma float64, degree int) (BernsteinPoly, float64, error) {
	e := c.entry(gammaCoefKey{gamma: gamma, degree: degree})
	e.once.Do(func() {
		e.poly, e.maxErr, e.err = GammaCorrection(gamma, degree)
		if e.err != nil {
			c.drop(e)
		}
	})
	return e.poly, e.maxErr, e.err
}

// entry returns the key's entry, inserting an empty one — and evicting
// the oldest fits down to the bound — on a miss. A caller still
// fitting an evicted entry finishes on its own copy.
func (c *GammaCoefCache) entry(key gammaCoefKey) *gammaCoefEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[key]; e != nil {
		return e
	}
	if c.m == nil {
		c.m = make(map[gammaCoefKey]*gammaCoefEntry)
	}
	for len(c.fifo) >= gammaCoefCacheCap {
		delete(c.m, c.fifo[0].key)
		c.fifo[0] = nil
		c.fifo = c.fifo[1:]
	}
	e := &gammaCoefEntry{key: key}
	c.m[key] = e
	c.fifo = append(c.fifo, e)
	return e
}

// drop removes a failed fit's entry unless eviction already has.
func (c *GammaCoefCache) drop(e *gammaCoefEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.Index(c.fifo, e); i >= 0 {
		delete(c.m, e.key)
		c.fifo = slices.Delete(c.fifo, i, i+1)
	}
}
