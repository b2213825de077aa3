// Package enginetest is the single generic cross-engine equivalence
// and GOMAXPROCS-determinism suite, and the home of the test-only
// engines it replays on. Each package with engine-accepting entry
// points registers one Case per entry point and calls Run once; the
// suite replays every case on every engine of Engines() at GOMAXPROCS
// 1 and 4 and requires results deeply equal to the engine.Serial
// reference. A new engine therefore inherits the full equivalence
// battery by joining Engines() — no per-path oracle tests to re-write.
// The osclint oraclepair rule enforces the registration side: every
// engine-accepting entry point must appear in a test file that invokes
// Run.
//
// Besides the production engines, Engines() carries one test-only
// engine defined here: Chaos, a deterministic fault injector.
//
// The package deliberately does not import testing, so Run can also be
// driven by a recording TB — that is how its own teeth are proven:
// Lossy, a deliberately broken engine that drops the final index (the
// deterministic stand-in for a nondeterministic engine's missed work),
// and Repeating, which runs the final index twice, must fail the
// suite.
package enginetest

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"time"

	"repro/internal/engine"
)

// TB is the minimal testing surface Run needs; *testing.T satisfies
// it. (testing.TB itself cannot be implemented outside package
// testing, and the teeth test needs a recording implementation.)
type TB interface {
	Helper()
	Logf(format string, args ...any)
	Errorf(format string, args ...any)
}

// Case is one engine-accepting entry point under test. Eval must
// build any stateful fixtures (simulators, caches) fresh on every
// call and run the entry point on the given engine, returning the
// result and error exactly as produced.
type Case struct {
	Name string
	Eval func(e engine.Engine) (any, error)
}

// The shared test-only members of Engines(). Each is one instance for
// the whole process, so concurrent dispatches share its state as they
// would in a service (the 2-slot cap applies to their union).
var (
	// limited is a deliberately tight slot cap, so every suite replays
	// on a slot-starved dispatch — proof that admission limiting never
	// changes results.
	limited = engine.NewLimited("limited", engine.WordParallel, 2)
	// chaos injects only recoverable faults — drop-then-retry
	// reordering on a quarter of the items plus rare tiny delays — so
	// it honors the determinism contract. Panic injection is for
	// purpose-built instances (RunChaos).
	chaos = NewChaos("chaos", engine.WordParallel, 0x9E3779B97F4A7C15, ChaosSpec{
		DropProb:  0.25,
		DelayProb: 0.02,
		Delay:     50 * time.Microsecond,
	})
)

// Engines returns the engines every suite replays on: the two
// built-ins, a 2-slot Limited and a recoverable Chaos. Run and
// RunChaos use it when their engines argument is nil.
func Engines() []engine.Engine {
	return []engine.Engine{engine.Serial, engine.WordParallel, limited, chaos}
}

// gomaxprocsLevels are the scheduler widths every (case, engine) pair
// replays under: the degenerate single-proc pool and a contended one.
var gomaxprocsLevels = []int{1, 4}

// Run replays every case on every engine at each GOMAXPROCS level and
// reports divergence from the engine.Serial reference through t. A
// nil engines slice means Engines() — the standard call, so engines
// added there are picked up automatically.
func Run(t TB, engines []engine.Engine, cases []Case) {
	t.Helper()
	if engines == nil {
		engines = Engines()
	}
	for _, c := range cases {
		if c.Name == "" || c.Eval == nil {
			t.Errorf("enginetest: case %q has no name or no Eval", c.Name)
			continue
		}
		ref, refErr := evalAt(1, engine.Serial, c.Eval)
		if refErr != nil {
			t.Errorf("enginetest: %s: serial reference failed: %v", c.Name, refErr)
			continue
		}
		for _, e := range engines {
			for _, procs := range gomaxprocsLevels {
				got, err := evalAt(procs, e, c.Eval)
				if err != nil {
					t.Errorf("enginetest: %s: engine %q at GOMAXPROCS %d: %v", c.Name, e.Name(), procs, err)
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("enginetest: %s: engine %q at GOMAXPROCS %d diverges from the serial reference\n got: %+v\nwant: %+v",
						c.Name, e.Name(), procs, got, ref)
				}
			}
		}
	}
}

// evalAt runs eval under a pinned GOMAXPROCS and restores the prior
// setting before returning.
func evalAt(procs int, e engine.Engine, eval func(engine.Engine) (any, error)) (any, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return eval(e)
}

// chaosSuiteSeed fixes the fault schedule RunChaos uses, so a chaos
// failure reproduces identically on every run and machine.
const chaosSuiteSeed = 0xA24BAED4963EE407

// RunChaos is the adversarial counterpart of Run: it replays every
// case on every engine wrapped in fault-injecting Chaos instances and
// asserts the repo's two robustness invariants hold under attack.
//
//  1. Recovery: with recoverable faults only (half the items dropped
//     and retried, some delayed), results must stay bit-identical to
//     the engine.Serial reference — reordering and scheduling jitter
//     must not leak into output.
//  2. Typed failure: with a panic injected at item 0, the case must
//     fail loudly and typed — either a panic carrying a
//     *engine.PanicError or a returned error wrapping one, with the
//     injected ChaosPanic reachable via errors.As. An engine
//     (or entry point) that swallows the fault and returns a result
//     anyway fails the suite.
//
// A nil engines slice means Engines(). Like Run, it takes the TB
// surface so a recording TB can prove the suite's own teeth.
func RunChaos(t TB, engines []engine.Engine, cases []Case) {
	t.Helper()
	if engines == nil {
		engines = Engines()
	}
	for _, c := range cases {
		if c.Name == "" || c.Eval == nil {
			t.Errorf("enginetest: chaos case %q has no name or no Eval", c.Name)
			continue
		}
		ref, refErr := evalAt(1, engine.Serial, c.Eval)
		if refErr != nil {
			t.Errorf("enginetest: %s: serial reference failed: %v", c.Name, refErr)
			continue
		}
		for _, e := range engines {
			recov := NewChaos("chaos-recover("+e.Name()+")", e, chaosSuiteSeed, ChaosSpec{
				DropProb:  0.5,
				DelayProb: 0.02,
				Delay:     20 * time.Microsecond,
			})
			got, err := evalAt(4, recov, c.Eval)
			switch {
			case err != nil:
				t.Errorf("enginetest: %s: engine %q errored under recoverable chaos: %v", c.Name, e.Name(), err)
			case !reflect.DeepEqual(got, ref):
				t.Errorf("enginetest: %s: engine %q diverges from the serial reference under recoverable chaos\n got: %+v\nwant: %+v",
					c.Name, e.Name(), got, ref)
			}

			boom := NewChaos("chaos-panic("+e.Name()+")", e, chaosSuiteSeed, ChaosSpec{
				DropProb: 0.25,
				Panic:    true,
				PanicAt:  0,
			})
			err, recovered := probe(boom, c.Eval)
			switch {
			case recovered != nil:
				pe, ok := recovered.(*engine.PanicError)
				if !ok {
					t.Errorf("enginetest: %s: engine %q re-raised an untyped panic %v (%T), want *engine.PanicError",
						c.Name, e.Name(), recovered, recovered)
				} else if !errors.As(pe, new(ChaosPanic)) {
					t.Errorf("enginetest: %s: engine %q lost the injected fault under the panic: %v", c.Name, e.Name(), pe)
				}
			case err != nil:
				if !errors.As(err, new(ChaosPanic)) {
					t.Errorf("enginetest: %s: engine %q returned an error not wrapping the injected fault: %v",
						c.Name, e.Name(), err)
				}
			default:
				t.Errorf("enginetest: %s: engine %q swallowed an injected panic and returned a result — panic propagation is broken",
					c.Name, e.Name())
			}
		}
	}
}

// probe runs eval under a pinned GOMAXPROCS, separating a returned
// error from a propagated panic.
func probe(e engine.Engine, eval func(engine.Engine) (any, error)) (err error, recovered any) {
	defer func() { recovered = recover() }()
	_, err = evalAt(4, e, eval)
	return err, nil
}

// Lossy is a deliberately broken Engine: it drops the final index of
// every fan-out — the deterministic stand-in for the work a racy
// engine loses. It exists so tests can prove Run has teeth (see
// TestSuiteCatchesLossyEngine) and is not in Engines().
var Lossy engine.Engine = lossyEngine{}

type lossyEngine struct{}

func (lossyEngine) Name() string    { return "lossy" }
func (lossyEngine) Workers(int) int { return 1 }

func (lossyEngine) ForWorkerCtx(_ context.Context, n, _ int, fn func(worker, i int)) error {
	for i := 0; i < n-1; i++ {
		fn(0, i)
	}
	return nil
}

// Repeating is the complementary broken Engine: it runs the final
// index of every fan-out twice — the double execution an engine that
// re-runs finished work (or a merge of overlapping shards) would
// cause. Any case that accumulates (the worker-scratch pattern)
// diverges, so Run must flag it. It repeats the last index rather than
// index 0, whose repeat adds 0² to a sum of squares and changes
// nothing. Not in Engines(); see TestSuiteCatchesLossyEngine.
var Repeating engine.Engine = repeatingEngine{}

type repeatingEngine struct{}

func (repeatingEngine) Name() string    { return "repeating" }
func (repeatingEngine) Workers(int) int { return 1 }

func (repeatingEngine) ForWorkerCtx(_ context.Context, n, _ int, fn func(worker, i int)) error {
	for i := 0; i < n; i++ {
		fn(0, i)
	}
	if n > 0 {
		fn(0, n-1)
	}
	return nil
}

// Swallow is the third deliberately broken Engine: it recovers and
// discards any panic a work item raises, then carries on — the
// anti-pattern the panic-propagation contract forbids (a fault
// silently becomes missing work). RunChaos must flag it (see
// TestChaosSuiteCatchesSwallowedPanics); it is not in Engines().
var Swallow engine.Engine = swallowEngine{}

type swallowEngine struct{}

func (swallowEngine) Name() string    { return "swallow" }
func (swallowEngine) Workers(int) int { return 1 }

func (swallowEngine) ForWorkerCtx(_ context.Context, n, _ int, fn func(worker, i int)) error {
	for i := 0; i < n; i++ {
		swallowOne(func() { fn(0, i) })
	}
	return nil
}

func swallowOne(fn func()) {
	defer func() { _ = recover() }()
	fn()
}
