package image

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// GammaLUTCache is the cross-frame gamma state cache for video-style
// workloads. A single gamma-corrected frame costs a Bernstein
// coefficient fit, an MRR-first circuit solve (optical backend) and
// 256 stochastic stream evaluations; all of that is a pure function of
// the build recipe — batch randomness is (seed, level-index)-derived —
// so repeated frames at one (gamma, degree, spacing, streamLen, seed)
// rebuild identical state. The cache memoizes the quantized 256-level
// lookup table per recipe (coefficient fits shared across recipes
// through a stochastic.GammaCoefCache), turning every frame after the
// first into a pure LUT application with bit-identical pixels.
//
// The zero value is ready to use and safe for concurrent callers;
// per-recipe builds run outside the cache lock, so distinct recipes
// build in parallel while a shared recipe is built exactly once.
// Returned tables are shared and must be treated as read-only.
type GammaLUTCache struct {
	coefs stochastic.GammaCoefCache
	mu    sync.Mutex
	m     map[gammaLUTKey]*gammaLUTEntry
}

type gammaLUTKey struct {
	gamma     float64
	degree    int
	spacingNM float64 // 0 for the electronic ReSC baseline
	streamLen int
	seed      uint64
	optical   bool
}

type gammaLUTEntry struct {
	once sync.Once
	lut  [256]uint8
	err  error
}

// lut returns the memoized table for key, building it on first use
// from the cached coefficient fit and the backend-specific builder.
func (c *GammaLUTCache) lut(key gammaLUTKey, build func(poly stochastic.BernsteinPoly) ([256]uint8, error)) (*[256]uint8, error) {
	if key.streamLen < 1 {
		return nil, fmt.Errorf("image: stream length %d, need >= 1", key.streamLen)
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[gammaLUTKey]*gammaLUTEntry)
	}
	e := c.m[key]
	if e == nil {
		e = &gammaLUTEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		poly, _, err := c.coefs.GammaCorrection(key.gamma, key.degree)
		if err != nil {
			e.err = err
			return
		}
		e.lut, e.err = build(poly)
	})
	if e.err != nil {
		return nil, e.err
	}
	return &e.lut, nil
}

// OpticalLUT returns the cached optical gamma table for the recipe,
// bit-identical to the table GammaOptical builds per frame.
func (c *GammaLUTCache) OpticalLUT(gamma float64, degree int, spacingNM float64, streamLen int, seed uint64) (*[256]uint8, error) {
	key := gammaLUTKey{gamma: gamma, degree: degree, spacingNM: spacingNM, streamLen: streamLen, seed: seed, optical: true}
	return c.lut(key, func(poly stochastic.BernsteinPoly) ([256]uint8, error) {
		return opticalLUT(poly, degree, spacingNM, streamLen, seed)
	})
}

// ReSCLUT returns the cached electronic-baseline gamma table for the
// recipe, bit-identical to the table GammaReSC builds per frame.
func (c *GammaLUTCache) ReSCLUT(gamma float64, degree, streamLen int, seed uint64) (*[256]uint8, error) {
	key := gammaLUTKey{gamma: gamma, degree: degree, streamLen: streamLen, seed: seed}
	return c.lut(key, func(poly stochastic.BernsteinPoly) ([256]uint8, error) {
		return rescLUT(poly, streamLen, seed)
	})
}

// GammaVideoCtx applies optical gamma correction to a batch of frames
// — the video-style workload of the photonic-crystal follow-up — and
// returns the corrected frames in order. The gamma state (coefficient
// fit, circuit solve, 256-level LUT) is built once through the cache
// and amortized across the batch; frames are then independent LUT
// applications dispatched on the given engine, so the output is
// bit-identical on every conforming engine and on any core count (the
// table is a pure function of the recipe — TestGammaLUTCacheReuse
// pins it against the per-frame GammaOptical build).
//
// A nil cache builds the state privately for this call; passing a
// shared *GammaLUTCache amortizes it across calls (successive batches,
// interleaved gammas). Frames must be non-nil; a nil engine is an
// error. A fired ctx stops the frame fan-out at a frame boundary and
// surfaces a *engine.Partial (wrapping the context error, or the
// *parallel.PanicError of a faulting frame) instead of frames.
func GammaVideoCtx(ctx context.Context, e engine.Engine, frames []*Gray, gamma float64, degree int, spacingNM float64, streamLen int, seed uint64, cache *GammaLUTCache) ([]*Gray, error) {
	if err := engine.Check(e); err != nil {
		return nil, err
	}
	if cache == nil {
		cache = &GammaLUTCache{}
	}
	lut, err := cache.OpticalLUT(gamma, degree, spacingNM, streamLen, seed)
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

// GammaVideoPerFrameCtx is GammaVideoCtx with decorrelated stochastic
// noise across frames: frame i evaluates its LUT under the derived seed
// DeriveSeed(seed, i), so quantization error is independent frame to
// frame instead of frozen into one batch-wide pattern (the temporal
// analogue of the per-pixel decorrelation study). The output for a
// given (recipe, base seed, frame index) is still fully deterministic.
//
// Cache economics: the Bernstein coefficient fit depends only on
// (gamma, degree) and is shared across all frame seeds through the
// cache's GammaCoefCache, so the expensive fit happens once per batch;
// each distinct frame index then memoizes its own 256-level table, so
// replaying the batch (or a longer clip at the same base seed) hits
// every LUT already built. Frames are dispatched on the given engine
// under ctx; if any fail, the error of the lowest failing frame is
// returned — a deterministic choice, matching dse.SweepCtx. A nil
// engine is an error, and a fired ctx (or a faulting frame) surfaces a
// *engine.Partial instead of frames.
func GammaVideoPerFrameCtx(ctx context.Context, e engine.Engine, frames []*Gray, gamma float64, degree int, spacingNM float64, streamLen int, seed uint64, cache *GammaLUTCache) ([]*Gray, error) {
	if err := engine.Check(e); err != nil {
		return nil, err
	}
	if cache == nil {
		cache = &GammaLUTCache{}
	}
	// Fit the shared coefficients before the fan-out so per-frame
	// workers only ever build their own LUT.
	if _, _, err := cache.coefs.GammaCorrection(gamma, degree); err != nil {
		return nil, err
	}
	out := make([]*Gray, len(frames))
	errs := make([]error, len(frames))
	if err := engine.RunCtx(ctx, e, len(frames), nil, func(i int) {
		lut, err := cache.OpticalLUT(gamma, degree, spacingNM, streamLen, stochastic.DeriveSeed(seed, i))
		if err != nil {
			errs[i] = err
			return
		}
		f := frames[i].Clone()
		applyLUT(f, lut)
		out[i] = f
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
