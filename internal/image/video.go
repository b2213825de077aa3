package image

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// GammaLUTCache is the cross-frame gamma state cache for video-style
// workloads. A single gamma-corrected frame costs a Bernstein
// coefficient fit, an MRR-first circuit solve and 256 stochastic
// stream evaluations; all of that is a pure function of the build
// recipe — batch randomness is (seed, level-index)-derived — so
// repeated frames at one (gamma, degree, spacing, streamLen, seed)
// rebuild identical state. The cache memoizes the quantized 256-level
// optical lookup table per recipe (coefficient fits shared across
// recipes through a stochastic.GammaCoefCache), turning every frame
// after the first into a pure LUT application with bit-identical
// pixels.
//
// The zero value is ready to use and safe for concurrent callers;
// per-recipe builds run outside the cache lock, so distinct recipes
// build in parallel while a shared recipe is built by one caller at a
// time. The cache holds at most gammaLUTCacheCap recipes and evicts
// the oldest first, so unique-seed traffic cannot grow it without
// bound; an evicted recipe rebuilds the same table. Only successful
// builds are kept: a build that fails — its caller's ctx fired, say —
// drops its recipe, leaving it unbuilt for the next caller. Returned
// tables are shared and must be treated as read-only.
type GammaLUTCache struct {
	coefs stochastic.GammaCoefCache
	mu    sync.Mutex
	m     map[gammaLUTKey]*gammaLUTEntry
	// fifo holds m's entries oldest first.
	fifo []*gammaLUTEntry
}

// gammaLUTCacheCap bounds a GammaLUTCache: a video stream or a server
// cycles through a few recipes, and a table costs about 400 bytes.
const gammaLUTCacheCap = 256

type gammaLUTKey struct {
	gamma     float64
	degree    int
	spacingNM float64
	streamLen int
	seed      uint64
}

// gammaLUTEntry serializes one recipe's builds; lut stays nil until a
// build succeeds.
type gammaLUTEntry struct {
	key gammaLUTKey
	mu  sync.Mutex
	lut *[256]uint8
}

// OpticalLUT returns the cached optical gamma table for the recipe,
// bit-identical to the table GammaOptical builds per frame. A miss
// builds it as one 256-level batch dispatched on e under ctx; a fired
// ctx returns that batch's *engine.Partial and caches nothing.
func (c *GammaLUTCache) OpticalLUT(ctx context.Context, e engine.Engine, gamma float64, degree int, spacingNM float64, streamLen int, seed uint64) (*[256]uint8, error) {
	if streamLen < 1 {
		return nil, fmt.Errorf("image: stream length %d, need >= 1", streamLen)
	}
	ent := c.entry(gammaLUTKey{gamma: gamma, degree: degree, spacingNM: spacingNM, streamLen: streamLen, seed: seed})
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.lut != nil {
		return ent.lut, nil
	}
	poly, _, err := c.coefs.GammaCorrection(gamma, degree)
	var lut [256]uint8
	if err == nil {
		lut, err = opticalLUT(ctx, e, poly, degree, spacingNM, streamLen, seed)
	}
	if err != nil {
		c.drop(ent)
		return nil, err
	}
	ent.lut = &lut
	return ent.lut, nil
}

// entry returns the recipe's entry, inserting an empty one — and
// evicting the oldest recipes down to the bound — on a miss. A caller
// still building an evicted entry finishes on its own copy.
func (c *GammaLUTCache) entry(key gammaLUTKey) *gammaLUTEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent := c.m[key]; ent != nil {
		return ent
	}
	if c.m == nil {
		c.m = make(map[gammaLUTKey]*gammaLUTEntry)
	}
	for len(c.fifo) >= gammaLUTCacheCap {
		delete(c.m, c.fifo[0].key)
		c.fifo[0] = nil
		c.fifo = c.fifo[1:]
	}
	ent := &gammaLUTEntry{key: key}
	c.m[key] = ent
	c.fifo = append(c.fifo, ent)
	return ent
}

// drop removes a failed build's entry unless eviction already has.
func (c *GammaLUTCache) drop(ent *gammaLUTEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.Index(c.fifo, ent); i >= 0 {
		delete(c.m, ent.key)
		c.fifo = slices.Delete(c.fifo, i, i+1)
	}
}

// GammaVideoCtx applies optical gamma correction to a batch of frames
// — the video-style workload of the photonic-crystal follow-up — and
// returns the corrected frames in order. The gamma state (coefficient
// fit, circuit solve, 256-level LUT) is built once through the cache —
// the LUT as one 256-level batch on the given engine — and amortized
// across the batch; frames are then independent LUT applications
// dispatched on the same engine, so the output is bit-identical on
// every conforming engine and on any core count (the table is a pure
// function of the recipe — TestGammaLUTCacheReuse pins it against the
// per-frame GammaOptical build).
//
// A nil cache builds the state privately for this call; passing a
// shared *GammaLUTCache amortizes it across calls (successive batches,
// interleaved gammas). Frames must be non-nil; a nil engine is an
// error. A fired ctx stops the LUT build at a level boundary, or the
// frame fan-out at a frame boundary, and surfaces that dispatch's
// *engine.Partial (wrapping the context error, or the
// *engine.PanicError of a faulting item) instead of frames.
func GammaVideoCtx(ctx context.Context, e engine.Engine, frames []*Gray, gamma float64, degree int, spacingNM float64, streamLen int, seed uint64, cache *GammaLUTCache) ([]*Gray, error) {
	if err := engine.Check(e); err != nil {
		return nil, err
	}
	if cache == nil {
		cache = &GammaLUTCache{}
	}
	lut, err := cache.OpticalLUT(ctx, e, gamma, degree, spacingNM, streamLen, seed)
	if err != nil {
		return nil, err
	}
	out := make([]*Gray, len(frames))
	if err := engine.RunCtx(ctx, e, len(frames), nil, func(i int) {
		f := frames[i].Clone()
		applyLUT(f, lut)
		out[i] = f
	}); err != nil {
		return nil, err
	}
	return out, nil
}
