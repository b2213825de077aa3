package enginetest

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/stochastic"
)

// ChaosSpec selects the faults a Chaos engine injects. The zero value
// is benign (no faults). All randomness is drawn per index from the
// engine's seed via stochastic.DeriveSeed, so a given (seed, spec, n)
// always faults the same items — chaos runs are as reproducible as the
// sweeps they stress.
type ChaosSpec struct {
	// DropProb is the probability an index is dropped from the first
	// dispatch pass and retried in a second one. Every index still runs
	// exactly once, so a conforming work function produces bit-identical
	// results; what the drop stresses is order-independence.
	DropProb float64
	// DelayProb is the probability an index sleeps Delay before running,
	// perturbing scheduling without touching results.
	DelayProb float64
	// Delay is the injected sleep for delayed items.
	Delay time.Duration
	// Panic, when set, makes item PanicAt (clamped to [0, n-1]) panic
	// with a ChaosPanic instead of running — exercising the panic
	// capture and typed-error propagation path end to end.
	Panic bool
	// PanicAt is the index to panic at when Panic is set.
	PanicAt int
}

// ChaosPanic is the error value a Chaos engine panics with when
// ChaosSpec.Panic is set. It is reachable from the surfaced
// *parallel.PanicError through errors.As (PanicError.Unwrap exposes
// error panic values), so tests can tell an injected fault from a real
// one.
type ChaosPanic struct {
	// Index is the item the panic was injected at.
	Index int
}

// Error implements error.
func (c ChaosPanic) Error() string {
	return fmt.Sprintf("enginetest: chaos: injected panic at item %d", c.Index)
}

// Chaos is a fault-injecting wrapper engine: it dispatches on an inner
// engine but reorders dropped-then-retried items, delays some, and
// optionally panics at a chosen index, per its ChaosSpec. With a
// benign spec (no Panic) it satisfies the full determinism contract —
// every index runs exactly once — so it sits in Engines() and passes
// the generic equivalence suite while stressing scheduling, ordering
// and recovery assumptions in every dispatch.
type Chaos struct {
	name  string
	inner engine.Engine
	seed  uint64
	spec  ChaosSpec
}

// NewChaos wraps inner in a fault injector named name, drawing its
// per-index fault decisions from seed. A nil inner panics
// (engine.Use).
func NewChaos(name string, inner engine.Engine, seed uint64, spec ChaosSpec) *Chaos {
	return &Chaos{name: name, inner: engine.Use(inner), seed: seed, spec: spec}
}

// Name implements engine.Engine.
func (c *Chaos) Name() string { return c.name }

// Workers implements engine.Engine by deferring to the inner engine.
func (c *Chaos) Workers(n int) int { return c.inner.Workers(n) }

// Spec returns the fault plan the engine was built with.
func (c *Chaos) Spec() ChaosSpec { return c.spec }

// plan draws the deterministic fault plan for an n-item dispatch: the
// index handout order (kept items first, dropped ones retried at the
// end) and the per-index delay decisions. Both draws happen for every
// index regardless of the spec's probabilities, so enabling one fault
// never shifts another's decisions.
func (c *Chaos) plan(n int) (order []int, delayed []bool) {
	order = make([]int, 0, n)
	retry := make([]int, 0, n/4+1)
	delayed = make([]bool, n)
	for i := 0; i < n; i++ {
		rng := stochastic.NewSplitMix64(stochastic.DeriveSeed(c.seed, i))
		drop := rng.Next() < c.spec.DropProb
		delayed[i] = rng.Next() < c.spec.DelayProb
		if drop {
			retry = append(retry, i)
		} else {
			order = append(order, i)
		}
	}
	return append(order, retry...), delayed
}

// panicAt returns the clamped injection index, or -1 when panic
// injection is off.
func (c *Chaos) panicAt(n int) int {
	if !c.spec.Panic || n <= 0 {
		return -1
	}
	at := c.spec.PanicAt
	if at < 0 {
		at = 0
	}
	if at >= n {
		at = n - 1
	}
	return at
}

// ForWorkerCtx implements engine.Engine: dispatch position j of the
// inner engine's handout runs the planned item order[j], and a panic is
// re-attributed to that real index (the inner engine only sees the
// dispatch position, which the drop-then-retry reorder divorces from
// the item). The re-raised *parallel.PanicError passes through the
// inner engine's own capture unchanged, so the caller sees the failing
// item, not its slot.
func (c *Chaos) ForWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if n <= 0 {
		return c.inner.ForWorkerCtx(ctx, n, workers, fn)
	}
	order, delayed := c.plan(n)
	at := c.panicAt(n)
	return c.inner.ForWorkerCtx(ctx, n, workers, func(w, j int) {
		i := order[j]
		pe := parallel.Capture(w, i, func() {
			if i == at {
				panic(ChaosPanic{Index: i})
			}
			if delayed[i] {
				time.Sleep(c.spec.Delay)
			}
			fn(w, i)
		})
		if pe != nil {
			panic(pe)
		}
	})
}
