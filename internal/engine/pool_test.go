package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// wp is WordParallel's pool, called through its concrete type so the
// tests reach the CtxEngine methods without a type assertion.
var wp wordParallelEngine

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		counts := make([]atomic.Int32, n)
		wp.For(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

func TestForWorkerCoversAllIndicesWithValidWorkers(t *testing.T) {
	for _, n := range []int{1, 7, 500} {
		// Caller-supplied counts (clamped to [1, n]) and the
		// workers<=0 auto-size must both keep worker in bounds.
		for _, workers := range []int{0, 1, 3, n + 5} {
			counts := make([]atomic.Int32, n)
			maxWorker := workers
			if maxWorker < 1 {
				maxWorker = wp.Workers(n)
			}
			if maxWorker > n {
				maxWorker = n
			}
			var bad atomic.Int32
			wp.ForWorker(n, workers, func(worker, i int) {
				if worker < 0 || worker >= maxWorker {
					bad.Add(1)
				}
				counts[i].Add(1)
			})
			if bad.Load() != 0 {
				t.Fatalf("n=%d workers=%d: %d calls with worker outside [0,%d)",
					n, workers, bad.Load(), maxWorker)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestForWorkerScratchExclusive: per-worker scratch is never touched
// by two goroutines at once — the contract tiled engines rely on.
// `go test -race` turns any violation into a hard failure.
func TestForWorkerScratchExclusive(t *testing.T) {
	const n = 200
	workers := wp.Workers(n)
	scratch := make([][]int, workers)
	wp.ForWorker(n, workers, func(worker, i int) {
		scratch[worker] = append(scratch[worker], i)
	})
	total := 0
	for _, s := range scratch {
		total += len(s)
	}
	if total != n {
		t.Errorf("scratch items = %d, want %d", total, n)
	}
}

func TestForNegative(t *testing.T) {
	ran := false
	wp.For(-3, func(i int) { ran = true })
	if ran {
		t.Error("negative n ran the body")
	}
}

func TestWorkersRespectsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if w := wp.Workers(64); w != 1 {
		t.Errorf("Workers(64) under GOMAXPROCS(1) = %d", w)
	}
}

func TestWorkersBounds(t *testing.T) {
	if w := wp.Workers(0); w != 1 {
		t.Errorf("Workers(0) = %d", w)
	}
	if w := wp.Workers(1); w != 1 {
		t.Errorf("Workers(1) = %d", w)
	}
	if w := wp.Workers(1 << 20); w < 1 {
		t.Errorf("Workers(big) = %d", w)
	}
}

// TestGuardsNeverSpawn: non-positive n and workers return immediately
// without running the body or spawning goroutines, on every variant.
func TestGuardsNeverSpawn(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, n := range []int{0, -1, -100} {
		wp.For(n, func(i int) { t.Errorf("For(%d) ran body at %d", n, i) })
		wp.ForWorker(n, 4, func(w, i int) { t.Errorf("ForWorker(%d) ran body at %d", n, i) })
		wp.ForWorker(n, -2, func(w, i int) { t.Errorf("ForWorker(%d, -2) ran body at %d", n, i) })
		if err := wp.ForCtx(context.Background(), n, func(i int) {
			t.Errorf("ForCtx(%d) ran body at %d", n, i)
		}); err != nil {
			t.Errorf("ForCtx(%d) = %v", n, err)
		}
		if err := wp.ForWorkerCtx(context.Background(), n, -7, func(w, i int) {
			t.Errorf("ForWorkerCtx(%d) ran body at %d", n, i)
		}); err != nil {
			t.Errorf("ForWorkerCtx(%d) = %v", n, err)
		}
	}
	// The guards must not leave watcher or worker goroutines behind.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked by guards: %d -> %d", before, after)
	}
	// workers <= 0 on a real workload auto-sizes instead of spawning
	// an unbounded pool.
	var count atomic.Int32
	wp.ForWorker(8, -3, func(w, i int) { count.Add(1) })
	if count.Load() != 8 {
		t.Errorf("ForWorker(8, -3) ran %d of 8 items", count.Load())
	}
}

// TestForCtxCompletesWithoutCancel: an un-canceled context changes
// nothing — every index runs exactly once and the error is nil, at
// one worker and many.
func TestForCtxCompletesWithoutCancel(t *testing.T) {
	for _, n := range []int{1, 7, 300} {
		counts := make([]atomic.Int32, n)
		if err := wp.ForCtx(context.Background(), n, func(i int) { counts[i].Add(1) }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

// TestForCtxAlreadyCanceled: a context that is dead on arrival runs
// nothing and reports the context's error.
func TestForCtxAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := wp.ForCtx(ctx, 100, func(i int) { t.Errorf("ran item %d", i) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForCtxStopsAtItemBoundary: cancelling mid-sweep stops the
// handout — items never start after the cancellation is observed, and
// the in-flight ones finish (no item is abandoned half-run).
func TestForCtxStopsAtItemBoundary(t *testing.T) {
	// Large enough that trivial items cannot all drain in the window
	// between cancel() and the watcher raising the stop flag.
	const n = 20_000_000
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished atomic.Int32
	err := wp.ForCtx(ctx, n, func(i int) {
		started.Add(1)
		if i == 10 {
			cancel()
			// Give the watcher a chance to raise the stop flag so the
			// test observes an actual early exit.
			time.Sleep(5 * time.Millisecond)
		}
		finished.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started.Load() != finished.Load() {
		t.Errorf("%d items started but only %d finished", started.Load(), finished.Load())
	}
	if started.Load() == n {
		t.Errorf("cancellation did not stop the handout (%d items all ran)", started.Load())
	}
}

// TestForCtxLateCancelIsNil: if every item completed, a context that
// fires afterwards does not turn the whole sweep into an error.
func TestForCtxLateCancelIsNil(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := wp.ForCtx(ctx, 50, func(i int) {}); err != nil {
		t.Fatalf("completed sweep reported %v", err)
	}
}

// TestDeadlineStopsSweep: a deadline behaves like cancellation, with
// context.DeadlineExceeded surfacing.
func TestDeadlineStopsSweep(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := wp.ForCtx(ctx, 1<<30, func(i int) { time.Sleep(50 * time.Microsecond) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWorkerPanicSurfacesOnCaller: a panic inside a pooled worker no
// longer crashes the process; it re-raises on the calling goroutine as
// a *PanicError naming the failing index, at one worker and many.
func TestWorkerPanicSurfacesOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T %v, want *PanicError", workers, r, r)
				}
				if pe.Index != 3 {
					t.Errorf("workers=%d: panic attributed to index %d, want 3", workers, pe.Index)
				}
				if pe.Worker < 0 || pe.Worker >= workers {
					t.Errorf("workers=%d: worker %d out of range", workers, pe.Worker)
				}
				if want := "item 3 panicked: boom"; !strings.Contains(pe.Error(), want) {
					t.Errorf("workers=%d: error %q does not contain %q", workers, pe.Error(), want)
				}
				if len(pe.Stack) == 0 {
					t.Errorf("workers=%d: no stack captured", workers)
				}
			}()
			wp.ForWorker(8, workers, func(w, i int) {
				if i == 3 {
					panic("boom")
				}
			})
		}()
	}
}

// TestForCtxPanicReturnsTypedError: the ctx variants surface the same
// panic as an ordinary error instead of re-raising, and an error panic
// value stays reachable through errors.Is.
func TestForCtxPanicReturnsTypedError(t *testing.T) {
	sentinel := errors.New("injected fault")
	err := wp.ForCtx(context.Background(), 16, func(i int) {
		if i == 5 {
			panic(sentinel)
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Index != 5 {
		t.Errorf("attributed to index %d, want 5", pe.Index)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("error panic value not reachable via errors.Is: %v", err)
	}
}

// TestLowestIndexPanicWins: when several items panic, the caller sees
// a deterministic choice — the lowest index recorded.
func TestLowestIndexPanicWins(t *testing.T) {
	err := wp.ForCtx(context.Background(), 4, func(i int) {
		panic(fmt.Sprintf("fault-%d", i))
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	// With 4 items and panics racing, the recorded panic must be the
	// lowest-index one among those that ran; index 0 always runs first
	// on worker 0's first handout only under serial dispatch, so just
	// require the invariant the recorder maintains: no lower-index
	// panic was dropped in favor of a higher one that raced it.
	if got, want := fmt.Sprint(pe.Value), fmt.Sprintf("fault-%d", pe.Index); got != want {
		t.Errorf("panic value %q does not match attributed index %d", got, pe.Index)
	}
}

// TestNestedPanicErrorPassesThrough: a nested fan-out that already
// attributed a panic is not re-wrapped by the outer one.
func TestNestedPanicErrorPassesThrough(t *testing.T) {
	err := wp.ForCtx(context.Background(), 2, func(outer int) {
		if outer == 1 {
			wp.For(3, func(inner int) {
				if inner == 2 {
					panic("deep fault")
				}
			})
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 2 {
		t.Errorf("outer dispatch re-attributed the nested panic: index %d, want inner index 2", pe.Index)
	}
	if fmt.Sprint(pe.Value) != "deep fault" {
		t.Errorf("panic value %v", pe.Value)
	}
}

// TestNilCtx: a nil context is treated as context.Background rather
// than panicking deep inside the pool.
func TestNilCtx(t *testing.T) {
	var ran atomic.Int32
	//lint:ignore SA1012 deliberate nil-ctx robustness check
	if err := wp.ForWorkerCtx(nil, 4, 2, func(w, i int) { ran.Add(1) }); err != nil || ran.Load() != 4 {
		t.Fatalf("nil ctx: err=%v ran=%d", err, ran.Load())
	}
}
