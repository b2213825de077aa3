package enginetest

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// suiteCases is a miniature but representative workload: an indexed
// fan-out with per-index derived seeds and index-ordered aggregation,
// with and without worker identity. Like a real entry point, each
// case propagates its dispatch error (and so a captured panic).
func suiteCases() []Case {
	return []Case{
		{
			Name: "derived-seed-sweep",
			Eval: func(e engine.Engine) (any, error) {
				out := make([]uint64, 9)
				err := engine.ForCtx(context.Background(), e, len(out), func(i int) {
					out[i] = stochastic.DeriveSeed(7, i)
				})
				return out, err
			},
		},
		{
			Name: "worker-scratch-sum",
			Eval: func(e engine.Engine) (any, error) {
				const n = 33
				workers := e.Workers(n)
				partial := make([]float64, workers)
				err := e.ForWorkerCtx(context.Background(), n, workers, func(w, i int) {
					partial[w] += float64(i * i)
				})
				var sum float64
				for _, p := range partial {
					sum += p
				}
				return sum, err
			},
		},
	}
}

// recorder is a TB that records failures instead of failing, so the
// suite itself can be put under test.
type recorder struct {
	failures []string
}

func (r *recorder) Helper() {}

func (r *recorder) Logf(format string, args ...any) {}

func (r *recorder) Errorf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// TestBuiltinEnginesPassSuite: every engine of Engines() reproduces
// the serial reference on the miniature workload — the suite run every
// evaluated package repeats with its real entry points.
func TestBuiltinEnginesPassSuite(t *testing.T) {
	Run(t, nil, suiteCases())
}

// TestEnginesPinsSuiteBreadth pins what every suite replays on, so its
// breadth cannot shrink silently: the two built-ins, a 2-slot Limited,
// a recoverable Chaos that does reorder, and a complete 3-way shard
// family.
func TestEnginesPinsSuiteBreadth(t *testing.T) {
	var names []string
	for _, e := range Engines() {
		names = append(names, e.Name())
	}
	if got, want := strings.Join(names, " "), "serial parallel limited chaos sharded"; got != want {
		t.Fatalf("Engines() = %s, want %s", got, want)
	}
	es := Engines()
	if es[0] != engine.Serial || es[1] != engine.WordParallel {
		t.Errorf("built-ins are %v, %v; want engine.Serial, engine.WordParallel", es[0], es[1])
	}
	if l, ok := es[2].(*engine.Limited); !ok || l.Slots() != 2 {
		t.Errorf("limited is %T, want a 2-slot *engine.Limited", es[2])
	}
	if c, ok := es[3].(*Chaos); !ok || c.spec.Panic || !(c.spec.DropProb > 0) {
		t.Errorf("chaos is %T %+v, want a *Chaos that drops items and never panics", es[3], es[3])
	}
	u, ok := es[4].(*ShardUnion)
	if !ok {
		t.Fatalf("sharded is %T, want *ShardUnion", es[4])
	}
	if len(u.shards) != 3 {
		t.Fatalf("sharded has %d shards, want 3", len(u.shards))
	}
	for k, sh := range u.shards {
		if sh.K != k || sh.N != 3 || sh.Contiguous || sh.Inner != engine.WordParallel {
			t.Errorf("shard %d is %s, want round-robin %d/3 over parallel", k, sh.Name(), k)
		}
	}
}

// TestSuiteCatchesLossyEngine proves the suite has teeth: an engine
// that violates exactly-once dispatch (Lossy drops the last index)
// must fail every case, deterministically.
func TestSuiteCatchesLossyEngine(t *testing.T) {
	rec := &recorder{}
	Run(rec, []engine.Engine{Lossy}, suiteCases())
	if len(rec.failures) == 0 {
		t.Fatal("suite accepted an engine that drops work; it has no teeth")
	}
	for _, want := range []string{"derived-seed-sweep", "worker-scratch-sum"} {
		found := false
		for _, f := range rec.failures {
			if strings.Contains(f, want) && strings.Contains(f, `"lossy"`) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("lossy engine not flagged on case %s; failures: %v", want, rec.failures)
		}
	}
}

// TestSuiteCatchesGappedShards: a shard family with a missing member
// leaves its indices zero-valued and must diverge from the serial
// reference — the suite-side proof that a gapped distributed run (or
// a merge that accepted one) cannot pass silently.
func TestSuiteCatchesGappedShards(t *testing.T) {
	rec := &recorder{}
	Run(rec, []engine.Engine{GappedShards}, suiteCases())
	if len(rec.failures) == 0 {
		t.Fatal("suite accepted a gapped shard union; it has no teeth")
	}
	found := false
	for _, f := range rec.failures {
		if strings.Contains(f, `"gapped-shards"`) && strings.Contains(f, "diverges") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("gapped shard union not flagged; failures: %v", rec.failures)
	}
}

// TestSuiteCatchesOverlappingShards: a family with a duplicated member
// runs its indices twice; the accumulating worker-scratch case must
// diverge, proving overlap cannot reassemble silently either.
func TestSuiteCatchesOverlappingShards(t *testing.T) {
	rec := &recorder{}
	Run(rec, []engine.Engine{OverlapShards}, suiteCases())
	found := false
	for _, f := range rec.failures {
		if strings.Contains(f, `"overlap-shards"`) && strings.Contains(f, "worker-scratch-sum") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("overlapping shard union not flagged; failures: %v", rec.failures)
	}
}

// TestRegisteredEnginesPassChaosSuite: every engine of Engines()
// recovers bit-identically from drop/delay faults and fails typed
// under injected panics.
func TestRegisteredEnginesPassChaosSuite(t *testing.T) {
	RunChaos(t, nil, suiteCases())
}

// TestChaosSuiteCatchesSwallowedPanics proves the chaos suite has
// teeth on the propagation side: an engine that recovers and discards
// work-item panics (Swallow) must be flagged for returning a result
// where a typed failure was due.
func TestChaosSuiteCatchesSwallowedPanics(t *testing.T) {
	rec := &recorder{}
	RunChaos(rec, []engine.Engine{Swallow}, suiteCases())
	if len(rec.failures) == 0 {
		t.Fatal("chaos suite accepted an engine that swallows panics; it has no teeth")
	}
	found := false
	for _, f := range rec.failures {
		if strings.Contains(f, `"swallow"`) && strings.Contains(f, "swallowed an injected panic") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("swallow engine not flagged for swallowing; failures: %v", rec.failures)
	}
}

// TestChaosSuiteCatchesDroppedWork proves the teeth on the recovery
// side: if retry/dispatch logic loses an item (Lossy drops the final
// dispatch slot, exactly what broken drop-then-retry would do), the
// recoverable-chaos replay must diverge from the serial reference.
func TestChaosSuiteCatchesDroppedWork(t *testing.T) {
	rec := &recorder{}
	RunChaos(rec, []engine.Engine{Lossy}, suiteCases())
	found := false
	for _, f := range rec.failures {
		if strings.Contains(f, `"lossy"`) && strings.Contains(f, "recoverable chaos") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("lossy engine not flagged under recoverable chaos; failures: %v", rec.failures)
	}
}

// TestSuiteRejectsMalformedCases: unnamed or Eval-less cases are
// reported rather than silently skipped.
func TestSuiteRejectsMalformedCases(t *testing.T) {
	rec := &recorder{}
	Run(rec, nil, []Case{{Name: "no-eval"}, {Eval: func(engine.Engine) (any, error) { return nil, nil }}})
	if len(rec.failures) != 2 {
		t.Fatalf("expected 2 malformed-case failures, got %v", rec.failures)
	}
}

// TestSuiteReportsReferenceFailure: a case whose serial reference
// errors is reported as such, not compared.
func TestSuiteReportsReferenceFailure(t *testing.T) {
	rec := &recorder{}
	Run(rec, nil, []Case{{
		Name: "broken-reference",
		Eval: func(e engine.Engine) (any, error) { return nil, fmt.Errorf("boom") },
	}})
	if len(rec.failures) != 1 || !strings.Contains(rec.failures[0], "serial reference failed") {
		t.Fatalf("reference failure not reported: %v", rec.failures)
	}
}
