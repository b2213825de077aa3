package engine

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Engine schedules n independent, index-addressed work items. See the
// package comment for the determinism contract every implementation
// must satisfy; conforming engines are interchangeable bit-for-bit.
type Engine interface {
	// Name identifies the engine in flags and test output (the
	// built-ins are "serial" and "parallel").
	Name() string
	// Workers reports the pool size the engine will use for n items
	// (at least 1 for n > 0), so callers can size per-worker scratch
	// before fanning out and pass the same count to ForWorkerCtx.
	Workers(n int) int
	// ForWorkerCtx runs fn(worker, i) for every i in [0, n) under ctx,
	// with a stable worker identity in [0, workers) for lock-free
	// per-worker scratch; workers should come from Workers(n). On a
	// nil error every index ran exactly once. Cancellation is observed
	// only between items, and a panicking item comes back as a
	// *PanicError. A nil ctx means context.Background().
	ForWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error
}

// serialEngine is the in-order reference implementation: one
// goroutine, ascending indices, worker 0 throughout.
type serialEngine struct{}

func (serialEngine) Name() string    { return "serial" }
func (serialEngine) Workers(int) int { return 1 }

func (serialEngine) ForWorkerCtx(ctx context.Context, n, _ int, fn func(worker, i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if pe := Capture(0, i, func() { fn(0, i) }); pe != nil {
			return pe
		}
	}
	return nil
}

// CtxEngine exists for the benchmark module (bench/) alone, whose
// tracing engine wraps WordParallel through it and calls all four of
// its dispatch methods. Only WordParallel implements it, on the same
// worker pool as its ForWorkerCtx; nothing else in this module names
// it or calls the three extra methods.
type CtxEngine interface {
	Engine
	For(n int, fn func(i int))
	ForWorker(n, workers int, fn func(worker, i int))
	ForCtx(ctx context.Context, n int, fn func(i int)) error
}

// The built-in engines. Serial is the reference oracle every
// cross-engine suite compares against and what nested fan-outs run
// on; WordParallel carries the word-parallel production paths and is
// the process default.
var (
	Serial       Engine = serialEngine{}
	WordParallel Engine = wordParallelEngine{}
)

// Get resolves a command-line engine name: "serial" or "parallel".
// Anything else errors with the choices.
func Get(name string) (Engine, error) {
	switch name {
	case Serial.Name():
		return Serial, nil
	case WordParallel.Name():
		return WordParallel, nil
	}
	return nil, fmt.Errorf("engine: unknown engine %q (have %s, %s)", name, Serial.Name(), WordParallel.Name())
}

// defaultEngine holds the process default behind a pointer so
// concurrent SetDefault/Default are race-free.
var defaultEngine atomic.Pointer[Engine]

func init() {
	defaultEngine.Store(&WordParallel)
}

// Default returns the process-default engine (WordParallel unless
// SetDefault changed it). Entry points never read it: they take their
// engine from the caller, and only the nil-Engine fallbacks of the
// figure and service configurations resolve to it.
func Default() Engine {
	return *defaultEngine.Load()
}

// SetDefault replaces the process-default engine. It rejects nil.
func SetDefault(e Engine) error {
	if e == nil {
		return fmt.Errorf("engine: SetDefault(nil)")
	}
	defaultEngine.Store(&e)
	return nil
}

// Check validates an engine selection for error-returning entry
// points: nil is reported, anything else passes.
func Check(e Engine) error {
	if e == nil {
		return fmt.Errorf("engine: nil engine (use engine.Serial or engine.WordParallel)")
	}
	return nil
}

// Use validates an engine selection for constructors with no error
// return: it panics on nil with an actionable message (the precedent
// set by core.Params.SpeedupVsElectronic) and returns e otherwise.
func Use(e Engine) Engine {
	if e == nil {
		panic("engine: nil engine (use engine.Serial or engine.WordParallel)")
	}
	return e
}

// Chunked maps fn over the half-open ranges of a balanced partition
// of [0, n), dispatched on e under ctx: at most e.Workers(n) chunks,
// each at least minChunk items (so cheap per-item work pays per-chunk
// dispatch overhead). When the engine or the partition degenerates to
// a single range, that one chunk is the pure serial walk. Errors are
// ForCtx's: a nil engine, the context's error, or a panicking chunk.
func Chunked(ctx context.Context, e Engine, n, minChunk int, fn func(lo, hi int)) error {
	if err := Check(e); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if minChunk < 1 {
		minChunk = 1
	}
	chunks := max(1, min(e.Workers(n), (n+minChunk-1)/minChunk))
	return ForCtx(ctx, e, chunks, func(c int) {
		fn(c*n/chunks, (c+1)*n/chunks)
	})
}
