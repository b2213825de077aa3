package dse

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/numeric"
	"repro/internal/stochastic"
)

// TestEngineSuite registers every engine-accepting entry point of the
// package — the two sweep runners, the yield study and every figure
// generator — into the generic cross-engine equivalence and
// GOMAXPROCS-determinism suite. The registered "limited" engine has
// two slots, so a generator that dispatched a nested fan-out on its
// own engine would hang here instead of passing.
func TestEngineSuite(t *testing.T) {
	ctx := context.Background()
	spec := NoiseStudySpec{X: 0.5, Lengths: []int{64}, ProbeMW: []float64{1, 0.5}, Trials: 3, BERBits: 1_000, Seed: 21}
	enginetest.Run(t, nil, []enginetest.Case{
		{
			Name: "dse.SweepCtx",
			Eval: func(e engine.Engine) (any, error) {
				return SweepCtx(ctx, e, 64, func(i int) (uint64, error) { return stochastic.DeriveSeed(42, i) ^ uint64(i), nil })
			},
		},
		{
			Name: "dse.GridCtx",
			Eval: func(e engine.Engine) (any, error) {
				return GridCtx(ctx, e, 7, 5, func(r, c int) [2]int { return [2]int{r, c} })
			},
		},
		{
			Name: "dse.YieldStudy.RunCtx",
			Eval: func(e engine.Engine) (any, error) {
				return yieldStudyFixture().RunCtx(ctx, e)
			},
		},
		{
			Name: "dse.Checkpointer.Run+RunCheckpointed",
			Eval: func(e engine.Engine) (any, error) {
				// A fresh un-persisted checkpointer (empty Path would
				// fail the save, so use a per-eval temp file) replays the
				// study through Checkpointer.Run via RunCheckpointed.
				s := yieldStudyFixture()
				dir, err := os.MkdirTemp("", "dse-enginetest-*")
				if err != nil {
					return nil, err
				}
				defer os.RemoveAll(dir)
				cp := NewCheckpointer[core.DieOutcome](filepath.Join(dir, "ck.json"), 0, s.Key())
				return s.RunCheckpointed(ctx, e, cp)
			},
		},
		{Name: "dse.Fig5C", Eval: func(e engine.Engine) (any, error) { return Fig5C(ctx, e) }},
		{Name: "dse.Fig6A", Eval: func(e engine.Engine) (any, error) { return Fig6A(ctx, e, 3, 3) }},
		{Name: "dse.Fig6B", Eval: func(e engine.Engine) (any, error) { return Fig6B(ctx, e, []float64{1e-2, 1e-6}) }},
		{Name: "dse.Fig6C", Eval: func(e engine.Engine) (any, error) { return Fig6C(ctx, e) }},
		{Name: "dse.Fig7A", Eval: func(e engine.Engine) (any, error) { return Fig7A(ctx, e, []int{2, 4}, 5) }},
		{Name: "dse.Fig7B", Eval: func(e engine.Engine) (any, error) { return Fig7B(ctx, e, []int{2, 4}) }},
		{Name: "dse.Summary", Eval: func(e engine.Engine) (any, error) { return Summary(ctx, e) }},
		{Name: "dse.ApplicationProfile", Eval: func(e engine.Engine) (any, error) { return ApplicationProfile(ctx, e) }},
		{Name: "dse.RingSensitivity", Eval: func(e engine.Engine) (any, error) { return RingSensitivity(ctx, e, []float64{1.0, -1}) }},
		{Name: "dse.NoiseStudy", Eval: func(e engine.Engine) (any, error) { return NoiseStudy(ctx, e, spec) }},
		{Name: "dse.EdgeStudy", Eval: func(e engine.Engine) (any, error) { return EdgeStudy(ctx, e, []int{64, 128}, 7) }},
		{Name: "dse.StreamLengthSweep", Eval: func(e engine.Engine) (any, error) { return StreamLengthSweep(ctx, e, []int{64, 128}, 5, 9) }},
	})
}

// yieldStudyFixture is a small but non-trivial study shared by the
// suite cases and the checkpoint tests.
func yieldStudyFixture() YieldStudy {
	return YieldStudy{
		Params:    core.PaperParams(),
		SigmasNM:  []float64{0.01, 0.1},
		Samples:   6,
		Seed:      99,
		TargetBER: 1e-6,
	}
}

// TestSweepErrOnLowestIndexError: the deterministic error choice holds
// on every engine the suites replay on.
func TestSweepErrOnLowestIndexError(t *testing.T) {
	for _, e := range enginetest.Engines() {
		_, err := SweepCtx(context.Background(), e, 10, func(i int) (int, error) {
			if i%3 == 2 { // fails at 2, 5, 8
				return 0, fmt.Errorf("point %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "point 2" {
			t.Fatalf("engine %q: err = %v, want the lowest failing index", e.Name(), err)
		}
	}
}

// TestNilEngineMisuse: both runners reject a nil engine cleanly.
func TestNilEngineMisuse(t *testing.T) {
	ctx := context.Background()
	if _, err := SweepCtx(ctx, nil, 4, func(i int) (int, error) { return i, nil }); err == nil {
		t.Error("SweepCtx(nil) did not error")
	}
	if _, err := GridCtx(ctx, nil, 2, 2, func(r, c int) int { return r + c }); err == nil {
		t.Error("GridCtx(nil) did not error")
	}
}

// BenchmarkSweepEngine drives a representative engine-dispatched
// workload — 64 independent MRR-first energy solves, the grain of the
// Fig. 7 sweeps — through SweepCtx on the word-parallel engine.
func BenchmarkSweepEngine(b *testing.B) {
	m := core.NewEnergyModel(2)
	ws := numeric.Linspace(0.11, 0.3, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SweepCtx(context.Background(), engine.WordParallel, len(ws), func(k int) (core.EnergyBreakdown, error) {
			return m.Breakdown(ws[k])
		}); err != nil {
			b.Fatal(err)
		}
	}
}
