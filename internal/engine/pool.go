package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the typed error a panicking work item surfaces as: the
// panic value plus the worker and item index it was raised on, and the
// stack captured at the panic site. Every engine's ForWorkerCtx
// returns it as an ordinary error; WordParallel's For and ForWorker
// re-raise it on the calling goroutine, so a worker panic never
// crashes the process ungoverned.
type PanicError struct {
	// Worker and Index attribute the panic to the pool goroutine and
	// the dispatch index it was processing.
	Worker, Index int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: worker %d: item %d panicked: %v", e.Worker, e.Index, e.Value)
}

// Unwrap exposes a panic value that is itself an error (the chaos
// engine's injected enginetest.ChaosPanic, a re-raised runtime error)
// to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Capture runs fn and converts a panic into a *PanicError attributed
// to (worker, index). A fn that panics with a *PanicError — a nested
// fan-out that already attributed the failure — passes through
// unchanged, keeping the innermost attribution. Returns nil when fn
// completes normally.
func Capture(worker, index int, fn func()) (pe *PanicError) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if inner, ok := r.(*PanicError); ok {
			pe = inner
			return
		}
		pe = &PanicError{Worker: worker, Index: index, Value: r, Stack: debug.Stack()}
	}()
	fn()
	return nil
}

// wordParallelEngine is the worker pool behind WordParallel, and the
// only code in the module that starts worker goroutines: a
// GOMAXPROCS-sized pool with an atomic index handout, run inline when
// it degenerates to one worker.
type wordParallelEngine struct{}

func (wordParallelEngine) Name() string { return "parallel" }

// Workers returns the pool size for n items: runtime.GOMAXPROCS(0) —
// the CPUs the scheduler may actually use, which callers (and tests)
// can pin below runtime.NumCPU() — clamped to n and to at least 1.
func (wordParallelEngine) Workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// ForWorkerCtx hands indices out through an atomic counter, so which
// worker runs which index is scheduling-dependent; workers <= 0 means
// Workers(n). Once ctx is done no new items are handed out and the
// context's error returns after the in-flight items finish. A
// panicking item abandons the remaining handout and returns as a
// *PanicError (the lowest index when several race).
func (wordParallelEngine) ForWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	// An atomic stop flag keeps the per-item cost of honoring ctx to
	// one relaxed load; a watcher goroutine raises it when ctx fires.
	var stop atomic.Bool
	if done := ctx.Done(); done != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				stop.Store(true)
			case <-finished:
			}
		}()
	}
	allDone, pe := forWorker(&stop, n, workers, fn)
	switch {
	case pe != nil:
		return pe
	case allDone:
		// Every item completed before the cancellation was observed;
		// the sweep is whole, so a late ctx firing is not an error.
		return nil
	default:
		return ctx.Err()
	}
}

// CtxEngine's three extra methods run on the same pool. For and
// ForWorker have no error return, so they re-raise a *PanicError on
// the caller.

func (p wordParallelEngine) For(n int, fn func(i int)) {
	p.ForWorker(n, 0, func(_, i int) { fn(i) })
}

func (wordParallelEngine) ForWorker(n, workers int, fn func(worker, i int)) {
	var stop atomic.Bool
	if _, pe := forWorker(&stop, n, workers, fn); pe != nil {
		panic(pe)
	}
}

func (p wordParallelEngine) ForCtx(ctx context.Context, n int, fn func(i int)) error {
	return p.ForWorkerCtx(ctx, n, 0, func(_, i int) { fn(i) })
}

// forWorker dispatches under a stop flag, re-raising nothing: it
// reports whether every item ran to completion, plus the first
// captured *PanicError (lowest index when several race) for the
// caller to re-raise or return.
func forWorker(stop *atomic.Bool, n, workers int, fn func(worker, i int)) (allDone bool, first *PanicError) {
	if n <= 0 {
		return true, nil
	}
	if workers < 1 {
		workers = wordParallelEngine{}.Workers(n)
	}
	workers = min(workers, n)

	var panicMu sync.Mutex
	record := func(pe *PanicError) {
		panicMu.Lock()
		if first == nil || pe.Index < first.Index {
			first = pe
		}
		panicMu.Unlock()
		// Abandon the remaining handout: the caller is about to see
		// the panic, so finishing the sweep would be wasted work.
		stop.Store(true)
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			if stop.Load() {
				return false, first
			}
			if pe := Capture(0, i, func() { fn(0, i) }); pe != nil {
				record(pe)
				return false, first
			}
		}
		return true, nil
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if pe := Capture(worker, i, func() { fn(worker, i) }); pe != nil {
					record(pe)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Workers return only after their in-flight item completes, so a
	// handout counter that reached n means every index was dispatched
	// and finished.
	return first == nil && int(next.Load()) >= n, first
}
