package dse

import (
	"context"
	"errors"

	"repro/internal/engine"
)

// This file is the deterministic sweep layer the figure generators
// run on. Every design-space study in this package is an
// index-ordered list of independent points — a grid cell of Fig. 6(a),
// one polynomial order of Fig. 7, one (probe, sigma) combination of
// the noise study — so they all reduce to "evaluate point i"
// dispatched on the caller's evaluation engine (internal/engine) under
// the caller's context. The runners keep results in index order, and
// Monte-Carlo points derive their randomness from the point index
// alone (stochastic.DeriveSeed at the call site), so a sweep returns
// identical results on every conforming engine, at any GOMAXPROCS and
// under any scheduling — which carries every figure built on them
// through the cross-engine equivalence suite for free.
//
// A study dispatches on its engine at exactly one level: a point that
// fans out again (the per-order spacing scans of Fig. 7, the noisy
// trial batches of the noise study) runs that inner fan-out on
// engine.Serial. A point therefore never waits for a slot of an
// engine.Limited it already holds.
//
// Cancellation is cooperative: a fired context stops the sweep at a
// point boundary and the runner returns a *engine.Partial (wrapping
// the context error, or the *engine.PanicError of a faulting point)
// alongside the partially filled result slice. Entries at indices the
// Partial's Done bitmap marks true completed without error and are
// safe to persist — what the Checkpointer does on interruption.

// SweepCtx evaluates point(i) for every i in [0, n) on e under ctx and
// returns the results in index order. Every point runs; if any fail,
// the error of the lowest failing index is returned (a deterministic
// choice) along with a nil slice. An interrupted sweep returns the
// *engine.Partial described above instead. A nil engine is an error.
func SweepCtx[T any](ctx context.Context, e engine.Engine, n int, point func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		n = 0
	}
	out := make([]T, n)
	errs := make([]error, n)
	if err := engine.RunCtx(ctx, e, n, nil, func(i int) { out[i], errs[i] = point(i) }); err != nil {
		var p *engine.Partial
		if errors.As(err, &p) {
			for i, perr := range errs {
				if perr != nil && p.Done[i] {
					p.Done[i] = false
					p.Completed--
				}
			}
		}
		return out, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GridCtx evaluates point(r, c) for every cell of an rows × cols grid
// on e under ctx and returns the results in row-major order — the
// shape of the Fig. 6(a) design-space study. Interruption behaves as
// in SweepCtx.
func GridCtx[T any](ctx context.Context, e engine.Engine, rows, cols int, point func(r, c int) T) ([]T, error) {
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	return SweepCtx(ctx, e, rows*cols, func(i int) (T, error) { return point(i/cols, i%cols), nil })
}
