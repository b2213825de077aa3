package engine_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// These tests drive the engine layer's dispatch functions through the
// fault-injecting enginetest.Chaos wrapper, the way net/http's tests
// use httptest: exactly-once coverage, item-boundary cancellation and
// panic attribution must all survive a reordering, delaying wrapper.

// TestChaosExactlyOnce: even with aggressive drop-then-retry the
// chaos engine runs every index exactly once — the property that makes
// it contract-conforming and bit-identical to serial.
func TestChaosExactlyOnce(t *testing.T) {
	c := enginetest.NewChaos("chaos-test", engine.WordParallel, 7, enginetest.ChaosSpec{DropProb: 0.5})
	const n = 513
	visits := make([]int32, n)
	if err := engine.ForCtx(context.Background(), c, n, func(i int) { atomic.AddInt32(&visits[i], 1) }); err != nil {
		t.Fatal(err)
	}
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("ForCtx: index %d ran %d times", i, v)
		}
	}
	visits = make([]int32, n)
	workers := c.Workers(n)
	if err := c.ForWorkerCtx(context.Background(), n, workers, func(w, i int) {
		if w < 0 || w >= workers {
			t.Errorf("worker %d outside [0, %d)", w, workers)
		}
		atomic.AddInt32(&visits[i], 1)
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("ForWorkerCtx: index %d ran %d times", i, v)
		}
	}
}

// chaosOrder records the order a chaos engine over engine.Serial hands
// out n items — its fault plan, observed from outside.
func chaosOrder(t *testing.T, seed uint64, n int) []int {
	t.Helper()
	c := enginetest.NewChaos("order", engine.Serial, seed, enginetest.ChaosSpec{DropProb: 0.3})
	var order []int
	if err := engine.ForCtx(context.Background(), c, n, func(i int) { order = append(order, i) }); err != nil {
		t.Fatal(err)
	}
	return order
}

// TestChaosPlanDeterministic: the fault plan is a pure function of
// (seed, spec, n) — same seed, same order; different seed, (almost
// surely) different order; and always a permutation of [0, n).
func TestChaosPlanDeterministic(t *testing.T) {
	const n = 200
	orderA := chaosOrder(t, 42, n)
	orderB := chaosOrder(t, 42, n)
	orderC := chaosOrder(t, 43, n)
	if len(orderA) != n {
		t.Fatalf("plan ran %d items for %d", len(orderA), n)
	}
	seen := make([]bool, n)
	same := true
	diff := false
	for j := range orderA {
		if seen[orderA[j]] {
			t.Fatalf("plan repeats index %d", orderA[j])
		}
		seen[orderA[j]] = true
		if orderA[j] != orderB[j] {
			same = false
		}
		if orderA[j] != orderC[j] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different plans")
	}
	if !diff {
		t.Error("different seeds produced identical plans (suspicious)")
	}
}

// TestChaosPanicInjection: a panic-injecting chaos engine surfaces a
// *engine.PanicError attributed to the real (reordered) item index,
// with the injected ChaosPanic reachable via errors.As underneath.
func TestChaosPanicInjection(t *testing.T) {
	for _, inner := range []engine.Engine{engine.Serial, engine.WordParallel} {
		c := enginetest.NewChaos("chaos-panic", inner, 11, enginetest.ChaosSpec{DropProb: 0.4, Panic: true, PanicAt: 5})
		err := engine.ForCtx(context.Background(), c, 32, func(i int) {})
		var pe *engine.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("inner=%s: err = %v (%T), want *engine.PanicError", inner.Name(), err, err)
		}
		if pe.Index != 5 {
			t.Errorf("inner=%s: panic attributed to index %d, want 5 (the item, not its dispatch slot)", inner.Name(), pe.Index)
		}
		var cp enginetest.ChaosPanic
		if !errors.As(err, &cp) || cp.Index != 5 {
			t.Errorf("inner=%s: ChaosPanic not reachable: %v", inner.Name(), err)
		}
	}
}

// TestChaosPanicAtClamped: out-of-range PanicAt clamps into [0, n-1]
// instead of silently never firing.
func TestChaosPanicAtClamped(t *testing.T) {
	for _, tc := range []struct{ at, want int }{{99, 2}, {-7, 0}} {
		c := enginetest.NewChaos("chaos-clamp", engine.Serial, 3, enginetest.ChaosSpec{Panic: true, PanicAt: tc.at})
		err := engine.ForCtx(context.Background(), c, 3, func(i int) {})
		var cp enginetest.ChaosPanic
		if !errors.As(err, &cp) {
			t.Fatalf("PanicAt=%d: no ChaosPanic: %v", tc.at, err)
		}
		if cp.Index != tc.want {
			t.Errorf("PanicAt=%d fired at %d, want clamped %d", tc.at, cp.Index, tc.want)
		}
	}
}

// TestChaosZeroSpecTransparent: the zero spec is a no-op wrapper —
// serial inner, ascending order, no faults.
func TestChaosZeroSpecTransparent(t *testing.T) {
	c := enginetest.NewChaos("chaos-zero", engine.Serial, 1, enginetest.ChaosSpec{})
	var order []int
	if err := engine.ForCtx(context.Background(), c, 6, func(i int) { order = append(order, i) }); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("zero-spec chaos reordered: %v", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("ran %d of 6", len(order))
	}
	for _, n := range []int{0, -1} {
		if err := engine.ForCtx(context.Background(), c, n, func(i int) { t.Errorf("n=%d ran item %d", n, i) }); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// TestChaosDelayStillCompletes: delays perturb scheduling but never
// results — a fully delayed sweep still covers every index.
func TestChaosDelayStillCompletes(t *testing.T) {
	c := enginetest.NewChaos("chaos-delay", engine.WordParallel, 3, enginetest.ChaosSpec{DelayProb: 1, Delay: 100 * time.Microsecond})
	var ran atomic.Int32
	if err := engine.ForCtx(context.Background(), c, 16, func(i int) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 16 {
		t.Fatalf("delayed sweep ran %d of 16", ran.Load())
	}
}

// TestChaosCancellation: the ctx path cancels through the wrapper like
// any other engine.
func TestChaosCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := enginetest.NewChaos("chaos-ctx", engine.WordParallel, 5, enginetest.ChaosSpec{DropProb: 0.2})
	err := engine.ForCtx(ctx, c, 40, func(i int) { t.Errorf("ran %d under dead ctx", i) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
