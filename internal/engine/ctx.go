package engine

import (
	"context"
	"fmt"
)

// ForCtx dispatches fn over [0, n) on e under ctx through the engine's
// ForWorkerCtx, sized by e.Workers(n), for callers that need no worker
// identity. A nil engine is an error; a nil ctx means
// context.Background().
func ForCtx(ctx context.Context, e Engine, n int, fn func(i int)) error {
	if err := Check(e); err != nil {
		return err
	}
	return e.ForWorkerCtx(ctx, n, e.Workers(n), func(_, i int) { fn(i) })
}

// Partial is the typed error an interrupted sweep returns: which
// points completed before the run stopped, and why it stopped. The
// cause is reachable through errors.Is/As — context.Canceled or
// context.DeadlineExceeded for cancellation, *parallel.PanicError for
// a panicking work item.
//
// A Partial accompanies partial results: sweep runners that return it
// also return their output slice with Done[i]==true entries valid, so
// checkpointing layers can persist what finished.
type Partial struct {
	// N is the sweep size; Completed counts finished points.
	N, Completed int
	// Done reports per-index completion; len(Done) == N.
	Done []bool
	// Cause is the underlying interruption.
	Cause error
}

// Error implements error.
func (p *Partial) Error() string {
	return fmt.Sprintf("engine: sweep interrupted after %d/%d points: %v", p.Completed, p.N, p.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (p *Partial) Unwrap() error { return p.Cause }

// RunCtx dispatches fn over [0, n) on e under ctx and reports
// interruption as a *Partial carrying the per-index completion bitmap
// — the primitive the ctx-aware sweep entry points (dse.SweepCtx,
// transient.BERWaterfallCtx, ...) are built on. Returns nil once every
// item completed. done, when non-nil, receives per-index completion
// (it must have length n); pass nil to let RunCtx track internally.
func RunCtx(ctx context.Context, e Engine, n int, done []bool, fn func(i int)) error {
	if err := Check(e); err != nil {
		return err
	}
	if n < 0 {
		n = 0
	}
	if done == nil {
		done = make([]bool, n)
	} else if len(done) != n {
		return fmt.Errorf("engine: RunCtx done bitmap has %d entries for %d items", len(done), n)
	}
	err := ForCtx(ctx, e, n, func(i int) {
		fn(i)
		done[i] = true
	})
	if err == nil {
		return nil
	}
	completed := 0
	for _, d := range done {
		if d {
			completed++
		}
	}
	return &Partial{N: n, Completed: completed, Done: done, Cause: err}
}
