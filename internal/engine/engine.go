package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// Engine schedules n independent, index-addressed work items. See the
// package comment for the determinism contract every implementation
// must satisfy; conforming engines are interchangeable bit-for-bit.
type Engine interface {
	// Name identifies the engine in registries, flags and test output
	// (the built-ins are "serial" and "parallel").
	Name() string
	// Workers reports the pool size the engine will use for n items
	// (at least 1 for n > 0), so callers can size per-worker scratch
	// before fanning out and pass the same count to ForWorker.
	Workers(n int) int
	// For runs fn(i) for every i in [0, n) exactly once and returns
	// after all calls complete.
	For(n int, fn func(i int))
	// ForWorker is For with a stable worker identity in [0, workers)
	// for lock-free per-worker scratch; workers should come from
	// Workers(n).
	ForWorker(n, workers int, fn func(worker, i int))
}

// serialEngine is the in-order reference implementation: one
// goroutine, ascending indices, worker 0 throughout.
type serialEngine struct{}

func (serialEngine) Name() string    { return "serial" }
func (serialEngine) Workers(int) int { return 1 }

func (serialEngine) For(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func (serialEngine) ForWorker(n, _ int, fn func(worker, i int)) {
	for i := 0; i < n; i++ {
		fn(0, i)
	}
}

// wordParallelEngine dispatches onto the internal/parallel worker
// pool (GOMAXPROCS-sized, atomic index handout, inline when the pool
// degenerates to one worker).
type wordParallelEngine struct{}

func (wordParallelEngine) Name() string      { return "parallel" }
func (wordParallelEngine) Workers(n int) int { return parallel.Workers(n) }

func (wordParallelEngine) For(n int, fn func(i int)) {
	parallel.For(n, fn)
}

func (wordParallelEngine) ForWorker(n, workers int, fn func(worker, i int)) {
	parallel.ForWorker(n, workers, fn)
}

// The built-in engines. Serial is the reference oracle every
// cross-engine suite compares against and what nested fan-outs run
// on; WordParallel carries the word-parallel production paths and is
// the process default.
var (
	Serial       Engine = serialEngine{}
	WordParallel Engine = wordParallelEngine{}
)

var (
	regMu    sync.RWMutex
	registry = map[string]Engine{
		Serial.Name():       Serial,
		WordParallel.Name(): WordParallel,
	}
)

// Register adds an engine to the process registry under e.Name() so
// Get can resolve it and enginetest.Run exercises it via All. It
// rejects nil engines, empty names and duplicates.
func Register(e Engine) error {
	if e == nil {
		return fmt.Errorf("engine: Register(nil)")
	}
	name := e.Name()
	if name == "" {
		return fmt.Errorf("engine: Register: empty engine name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("engine: Register: %q already registered", name)
	}
	registry[name] = e
	return nil
}

// Get resolves a registered engine by name; unknown or empty names
// error with the available choices.
func Get(name string) (Engine, error) {
	regMu.RLock()
	e, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
	}
	return e, nil
}

// Names lists the registered engine names, sorted.
func Names() []string {
	regMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	regMu.RUnlock()
	sort.Strings(names)
	return names
}

// All returns every registered engine, sorted by name — the set the
// generic equivalence suite replays each path on.
func All() []Engine {
	names := Names()
	engines := make([]Engine, 0, len(names))
	regMu.RLock()
	defer regMu.RUnlock()
	for _, name := range names {
		engines = append(engines, registry[name])
	}
	return engines
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

// Use validates an engine selection for entry points with no error
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
