// Package detrand is an analyzer fixture: deliberate violations of
// the determinism rule, marked with `// want <rule>` comments, next
// to the conforming patterns the rule must not flag.
package detrand

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// BadWallClockSeed seeds a worker RNG from the wall clock: both the
// time.Now use and the underived constructor are violations.
func BadWallClockSeed(ctx context.Context, e engine.Engine, n int) ([]float64, error) {
	out := make([]float64, n)
	err := engine.ForCtx(ctx, e, n, func(i int) {
		rng := stochastic.NewSplitMix64(uint64(time.Now().UnixNano())) // want detrand detrand
		out[i] = rng.Next()
	})
	return out, err
}

// BadSharedSeed constructs a per-item RNG from the item index without
// DeriveSeed — correlated streams across items.
func BadSharedSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := e.ForWorkerCtx(ctx, n, e.Workers(n), func(_, i int) {
		rng := stochastic.NewSplitMix64(seed + uint64(i)) // want detrand
		out[i] = rng.Next()
	})
	return out, err
}

// BadGlobalRand draws from the process-global math/rand source.
func BadGlobalRand() float64 {
	return rand.Float64() // want detrand
}

// GoodDirect derives the per-item seed in the closure body.
func GoodDirect(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.ForCtx(ctx, e, n, func(i int) {
		rng := stochastic.NewSplitMix64(stochastic.DeriveSeed(seed, i))
		out[i] = rng.Next()
	})
	return out, err
}

// itemSeed is the seed-helper pattern (trialSeeds, waterfallSeeds):
// the closure calls it, and it derives through DeriveSeed.
func itemSeed(base uint64, i int) uint64 {
	return stochastic.DeriveSeed(base, i)
}

// GoodHelper derives through a same-package helper.
func GoodHelper(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.ForCtx(ctx, e, n, func(i int) {
		rng := stochastic.NewSplitMix64(itemSeed(seed, i))
		out[i] = rng.Next()
	})
	return out, err
}

// BadEngineSeed constructs an underived per-item RNG inside an
// engine-dispatched worker body: the engine's own ForWorkerCtx is the
// fan-out primitive every other dispatcher is built on, so the same
// discipline applies.
func BadEngineSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := e.ForWorkerCtx(ctx, n, e.Workers(n), func(_, i int) {
		rng := stochastic.NewSplitMix64(seed + uint64(i)) // want detrand
		out[i] = rng.Next()
	})
	return out, err
}

// GoodEngineSeed derives per-item seeds on the engine dispatch path.
func GoodEngineSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := e.ForWorkerCtx(ctx, n, e.Workers(n), func(_, i int) {
		rng := stochastic.NewSplitMix64(stochastic.DeriveSeed(seed, i))
		out[i] = rng.Next()
	})
	return out, err
}

// BadLimitedSeed constructs an underived per-item RNG inside a
// dispatch through a concrete *engine.Limited: the wrapper only caps
// how many items run at once, so its closures are worker bodies under
// the same discipline.
func BadLimitedSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.ForCtx(ctx, engine.NewLimited("fixture", e, 2), n, func(i int) {
		rng := stochastic.NewSplitMix64(seed + uint64(i)) // want detrand
		out[i] = rng.Next()
	})
	return out, err
}

// GoodLimitedSeed derives per-item seeds on the slot-capped dispatch
// path — the property that keeps its outputs independent of which
// slot ran which item.
func GoodLimitedSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.ForCtx(ctx, engine.NewLimited("fixture", e, 2), n, func(i int) {
		rng := stochastic.NewSplitMix64(stochastic.DeriveSeed(seed, i))
		out[i] = rng.Next()
	})
	return out, err
}

// BadCtxSeed constructs an underived per-item RNG inside a
// cancellable dispatch: engine.RunCtx stops early but never re-runs
// an item, so its closures obey the same discipline as
// Engine.ForWorkerCtx.
func BadCtxSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.RunCtx(ctx, e, n, nil, func(i int) {
		rng := stochastic.NewSplitMix64(seed + uint64(i)) // want detrand
		out[i] = rng.Next()
	})
	return out, err
}

// BadChunkedSeed is the same violation on the chunked dispatch: a
// chunk's closure is a worker body too, seeded here from its range.
func BadChunkedSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.Chunked(ctx, e, n, 4, func(lo, hi int) {
		rng := stochastic.NewSplitMix64(seed ^ uint64(lo)) // want detrand
		for i := lo; i < hi; i++ {
			out[i] = rng.Next()
		}
	})
	return out, err
}

// GoodCtxSeed derives per-item seeds on the cancellable dispatch path.
func GoodCtxSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.RunCtx(ctx, e, n, nil, func(i int) {
		rng := stochastic.NewSplitMix64(stochastic.DeriveSeed(seed, i))
		out[i] = rng.Next()
	})
	return out, err
}

// GoodSerial constructs its RNG outside any worker closure — the
// serial-oracle pattern, not flagged.
func GoodSerial(n int, seed uint64) []float64 {
	rng := stochastic.NewSplitMix64(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Next()
	}
	return out
}
