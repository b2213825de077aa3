package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestLimitedRunsEveryIndexOnce: the semaphore changes scheduling
// only — every index still runs exactly once, with and without worker
// identity.
func TestLimitedRunsEveryIndexOnce(t *testing.T) {
	l := NewLimited("t", WordParallel, 2)
	const n = 64
	var counts [n]atomic.Int32
	if err := ForCtx(context.Background(), l, n, func(i int) { counts[i].Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("ForCtx: index %d ran %d times, want 1", i, got)
		}
		counts[i].Store(0)
	}
	w := l.Workers(n)
	if err := l.ForWorkerCtx(context.Background(), n, w, func(_, i int) { counts[i].Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("ForWorkerCtx: index %d ran %d times, want 1", i, got)
		}
	}
}

// TestLimitedCapsConcurrency: at no instant do more than Slots()
// items run, even when the inner pool is wider.
func TestLimitedCapsConcurrency(t *testing.T) {
	const slots = 2
	l := NewLimited("t", WordParallel, slots)
	var cur, peak atomic.Int32
	// Dispatch wider than the slot count, as a service's concurrent
	// jobs would, so the semaphore and not the pool does the capping.
	if err := l.ForWorkerCtx(context.Background(), 128, WordParallel.Workers(128), func(_, _ int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > slots {
		t.Fatalf("peak concurrency %d exceeds the %d-slot cap", p, slots)
	}
	if in := l.InFlight(); in != 0 {
		t.Fatalf("InFlight() = %d after dispatch returned, want 0", in)
	}
}

// TestLimitedWorkersCappedBySlots: Workers never reports more
// parallelism than the semaphore allows.
func TestLimitedWorkersCappedBySlots(t *testing.T) {
	l := NewLimited("t", WordParallel, 1)
	if w := l.Workers(100); w != 1 {
		t.Fatalf("Workers(100) = %d with 1 slot, want 1", w)
	}
	if s := l.Slots(); s != 1 {
		t.Fatalf("Slots() = %d, want 1", s)
	}
}

// TestLimitedReleasesSlotOnPanic: a panicking item must not leak
// semaphore capacity; the panic itself still comes back typed.
func TestLimitedReleasesSlotOnPanic(t *testing.T) {
	l := NewLimited("t", Serial, 1)
	err := ForCtx(context.Background(), l, 1, func(int) { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking item through Limited = %v, want *PanicError", err)
	}
	if in := l.InFlight(); in != 0 {
		t.Fatalf("InFlight() = %d after a panic, want 0 (leaked slot)", in)
	}
	// The freed slot must still be usable.
	ran := false
	if err := ForCtx(context.Background(), l, 1, func(int) { ran = true }); err != nil || !ran {
		t.Fatalf("dispatch after a panic: ran=%v err=%v", ran, err)
	}
}

// TestLimitedCtxCancelWhileSaturated: a dispatch cancelled while the
// semaphore is held by someone else reports the cancellation — never
// a silent success with work skipped.
func TestLimitedCtxCancelWhileSaturated(t *testing.T) {
	l := NewLimited("t", WordParallel, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		if err := ForCtx(context.Background(), l, 1, func(int) { close(started); <-block }); err != nil {
			t.Error(err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	ran := make(chan struct{}, 1)
	go func() {
		errCh <- l.ForWorkerCtx(ctx, 1, 1, func(int, int) { ran <- struct{}{} })
	}()
	cancel()
	err := <-errCh
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForWorkerCtx under a held slot returned %v, want context.Canceled", err)
	}
	select {
	case <-ran:
		t.Fatal("cancelled dispatch ran its item anyway")
	default:
	}
	close(block)
	<-holderDone
}

// TestLimitedMisuse: the constructor rejects broken configurations
// loudly.
func TestLimitedMisuse(t *testing.T) {
	for name, build := range map[string]func(){
		"nil inner": func() { NewLimited("t", nil, 1) },
		"zero slot": func() { NewLimited("t", Serial, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewLimited did not panic", name)
				}
			}()
			build()
		}()
	}
}
