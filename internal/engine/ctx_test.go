package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// TestBuiltinsImplementCtxEngine: both built-ins expose native ctx
// dispatch, so the package adapters never fall back to polling for
// them.
func TestBuiltinsImplementCtxEngine(t *testing.T) {
	for _, e := range []Engine{Serial, WordParallel} {
		if _, ok := e.(CtxEngine); !ok {
			t.Errorf("%s does not implement CtxEngine", e.Name())
		}
	}
}

// TestForCtxCompletes: with a live context every index runs exactly
// once on every registered engine, and the error is nil.
func TestForCtxCompletes(t *testing.T) {
	for _, e := range All() {
		const n = 97
		visits := make([]int32, n)
		if err := ForCtx(context.Background(), e, n, func(i int) {
			atomic.AddInt32(&visits[i], 1)
		}); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("%s: index %d visited %d times", e.Name(), i, v)
			}
		}
	}
}

// TestForCtxPreCanceled: a dead-on-arrival context runs nothing and
// surfaces context.Canceled from every registered engine.
func TestForCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		err := ForCtx(ctx, e, 50, func(i int) {
			t.Errorf("%s ran item %d under a canceled ctx", e.Name(), i)
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e.Name(), err)
		}
	}
}

// TestForCtxCancelMidSweep: cancelling during the sweep stops dispatch
// at an item boundary — the serial engine (deterministic order) must
// skip everything after the cancelling item.
func TestForCtxCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int32
	err := ForCtx(ctx, Serial, 100, func(i int) {
		atomic.AddInt32(&ran, 1)
		if i == 10 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran; got != 11 {
		t.Errorf("serial engine ran %d items after cancel at 10, want 11", got)
	}
}

// TestForCtxNilEngine: the adapters report a nil engine instead of
// panicking, matching Check.
func TestForCtxNilEngine(t *testing.T) {
	if err := ForCtx(context.Background(), nil, 4, func(int) {}); err == nil {
		t.Error("ForCtx(nil engine) accepted")
	}
	if err := ForWorkerCtx(context.Background(), nil, 4, 1, func(_, _ int) {}); err == nil {
		t.Error("ForWorkerCtx(nil engine) accepted")
	}
}

// plainEngine deliberately does not implement CtxEngine, forcing the
// package adapters down the polling path.
type plainEngine struct{}

func (plainEngine) Name() string    { return "plain-test" }
func (plainEngine) Workers(int) int { return 1 }
func (plainEngine) For(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
func (plainEngine) ForWorker(n, _ int, fn func(worker, i int)) {
	for i := 0; i < n; i++ {
		fn(0, i)
	}
}

// TestAdapterOnPlainEngine: an engine without ctx support still honors
// cancellation at item boundaries and converts panics to typed errors
// through the generic adapter.
func TestAdapterOnPlainEngine(t *testing.T) {
	if _, ok := Engine(plainEngine{}).(CtxEngine); ok {
		t.Fatal("fixture engine unexpectedly implements CtxEngine")
	}

	// Completion.
	var ran int32
	if err := ForCtx(context.Background(), plainEngine{}, 20, func(i int) {
		atomic.AddInt32(&ran, 1)
	}); err != nil || ran != 20 {
		t.Fatalf("complete: err=%v ran=%d", err, ran)
	}

	// Cancellation mid-sweep skips the tail.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran = 0
	err := ForCtx(ctx, plainEngine{}, 100, func(i int) {
		atomic.AddInt32(&ran, 1)
		if i == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: err = %v", err)
	}
	if ran != 6 {
		t.Errorf("adapter ran %d items after cancel at 5, want 6", ran)
	}

	// Panic conversion with index attribution.
	err = ForWorkerCtx(context.Background(), plainEngine{}, 10, 1, func(w, i int) {
		if i == 7 {
			panic("adapter fault")
		}
	})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic: err = %v (%T), want *parallel.PanicError", err, err)
	}
	if pe.Index != 7 {
		t.Errorf("panic attributed to index %d, want 7", pe.Index)
	}
}

// TestRunCtxComplete: a full run returns nil and fills the completion
// bitmap; a mis-sized bitmap is rejected.
func TestRunCtxComplete(t *testing.T) {
	done := make([]bool, 30)
	if err := RunCtx(context.Background(), WordParallel, 30, done, func(i int) {}); err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("index %d not marked done", i)
		}
	}
	if err := RunCtx(context.Background(), Serial, 30, make([]bool, 7), func(i int) {}); err == nil {
		t.Error("mis-sized done bitmap accepted")
	}
}

// TestRunCtxPartialOnCancel: an interrupted run surfaces a *Partial
// whose bitmap names exactly the completed points, with the context
// error reachable underneath.
func TestRunCtxPartialOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran [100]int32
	err := RunCtx(ctx, Serial, 100, nil, func(i int) {
		atomic.AddInt32(&ran[i], 1)
		if i == 20 {
			cancel()
		}
	})
	var p *Partial
	if !errors.As(err, &p) {
		t.Fatalf("err = %v (%T), want *Partial", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Partial does not unwrap to context.Canceled: %v", err)
	}
	if p.N != 100 || len(p.Done) != 100 {
		t.Fatalf("Partial N=%d len(Done)=%d", p.N, len(p.Done))
	}
	if p.Completed != 21 {
		t.Errorf("Completed = %d, want 21 (serial cancel at 20)", p.Completed)
	}
	for i, d := range p.Done {
		if d != (ran[i] == 1) {
			t.Errorf("Done[%d] = %v but item ran %d times", i, d, ran[i])
		}
	}
}

// TestRunCtxPartialOnPanic: a panicking work item surfaces as a
// *Partial wrapping the *parallel.PanicError that names the failing
// index — the typed-error half of the acceptance criteria.
func TestRunCtxPartialOnPanic(t *testing.T) {
	err := RunCtx(context.Background(), WordParallel, 64, nil, func(i int) {
		if i == 33 {
			panic("die fault")
		}
	})
	var p *Partial
	if !errors.As(err, &p) {
		t.Fatalf("err = %v (%T), want *Partial", err, err)
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Partial does not unwrap to *parallel.PanicError: %v", err)
	}
	if pe.Index != 33 {
		t.Errorf("panic attributed to index %d, want 33", pe.Index)
	}
	if p.Done[33] {
		t.Error("panicking item marked done")
	}
}

// TestChunkedEdgeCases: the documented degenerate shapes — empty
// input, n below minChunk, a chunk size that does not divide n, and
// single-item chunks — all tile [0, n) exactly once.
func TestChunkedEdgeCases(t *testing.T) {
	// n == 0 (and negative): no chunks at all.
	for _, n := range []int{0, -3} {
		if err := Chunked(context.Background(), WordParallel, n, 8, func(lo, hi int) {
			t.Errorf("Chunked(n=%d) ran chunk [%d, %d)", n, lo, hi)
		}); err != nil {
			t.Errorf("Chunked(n=%d) = %v", n, err)
		}
	}

	check := func(name string, e Engine, n, minChunk, wantChunks int) {
		t.Helper()
		covered := make([]int32, n)
		var chunks, single int32
		err := Chunked(context.Background(), e, n, minChunk, func(lo, hi int) {
			atomic.AddInt32(&chunks, 1)
			if hi-lo == 1 {
				atomic.AddInt32(&single, 1)
			}
			if lo < 0 || hi > n || hi <= lo {
				t.Errorf("%s: bad chunk [%d, %d)", name, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
			if minChunk > 1 && hi-lo < minChunk && chunks > 1 {
				// A multi-chunk partition must respect the floor; the
				// single-chunk fallback may be smaller than minChunk.
				t.Errorf("%s: chunk [%d, %d) below minChunk %d", name, lo, hi, minChunk)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range covered {
			if covered[i] != 1 {
				t.Fatalf("%s: index %d covered %d times", name, i, covered[i])
			}
		}
		if wantChunks > 0 && int(chunks) != wantChunks {
			t.Errorf("%s: %d chunks, want %d", name, chunks, wantChunks)
		}
	}

	// n < minChunk: collapses to the single inline chunk.
	check("n<minChunk", WordParallel, 5, 64, 1)
	// Chunk size not dividing n: 10 items, minChunk 3 → at most
	// ceil(10/3)=4 chunks (bounded also by workers), covering exactly.
	check("non-dividing", WordParallel, 10, 3, 0)
	// Single-item chunks: n == workers cap with minChunk 1 gives hi-lo
	// == 1 everywhere when the engine has at least n workers; with the
	// serial engine it is one chunk of n.
	if WordParallel.Workers(2) >= 2 {
		covered := make([]int32, 2)
		if err := Chunked(context.Background(), WordParallel, 2, 1, func(lo, hi int) {
			atomic.AddInt32(&covered[lo], 1)
			if hi-lo != 1 {
				t.Errorf("chunk [%d, %d), want single-item", lo, hi)
			}
		}); err != nil {
			t.Fatalf("single-item: %v", err)
		}
		for i := range covered {
			if covered[i] != 1 {
				t.Errorf("single-item: index %d covered %d times", i, covered[i])
			}
		}
	}
	check("serial-single", Serial, 4, 1, 1)
}
