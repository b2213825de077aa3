package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// yieldSuiteSpec is the variation fixture shared by the suite cases:
// mild variation so both passing and failing dies occur.
func yieldSuiteSpec() VariationSpec {
	return VariationSpec{
		RingResonanceSigmaNM: 0.05,
		CouplingSigma:        0.01,
		Samples:              24,
		Seed:                 7,
		TargetBER:            1e-6,
	}
}

// TestEngineSuite registers the package's engine-accepting entry
// points into the generic cross-engine equivalence and
// GOMAXPROCS-determinism suite: the chunked bracketing pre-pass of
// OptimalSpacingCtx must land on the bit-identical optimum on every
// engine, SweepCtx must filter feasible rows in index order, and the
// unit's batch must reproduce its per-index seeded streams.
func TestEngineSuite(t *testing.T) {
	ctx := context.Background()
	enginetest.Run(t, nil, []enginetest.Case{
		{
			Name: "core.Unit.EvaluateBatch",
			Eval: func(e engine.Engine) (any, error) {
				// A non-word-multiple length exercises the stream tail.
				return paperUnit(t, 21).EvaluateBatch(ctx, e, []float64{0, 0.2, 0.5, 0.9, 1, 0.37}, 300)
			},
		},
		{
			Name: "core.EnergyModel.OptimalSpacingCtx/order2",
			Eval: func(e engine.Engine) (any, error) {
				return NewEnergyModel(2).OptimalSpacingCtx(ctx, e, 0.1, 0.3)
			},
		},
		{
			Name: "core.EnergyModel.OptimalSpacingCtx/order4",
			Eval: func(e engine.Engine) (any, error) {
				return NewEnergyModel(4).OptimalSpacingCtx(ctx, e, 0.1, 0.3)
			},
		},
		{
			Name: "core.EnergyModel.SweepCtx",
			Eval: func(e engine.Engine) (any, error) {
				// The range straddles the feasibility boundary, so the
				// index-ordered filter is actually exercised.
				return NewEnergyModel(2).SweepCtx(ctx, e, 0.02, 0.3, 30)
			},
		},
		{
			Name: "core.EnergyModel.EnergySavingVsFixed",
			Eval: func(e engine.Engine) (any, error) {
				saving, fixed, opt, err := NewEnergyModel(2).EnergySavingVsFixed(ctx, e, 1.0, 0.1, 0.3)
				return []any{saving, fixed, opt}, err
			},
		},
		{
			Name: "core.AnalyzeYieldCtx",
			Eval: func(e engine.Engine) (any, error) {
				return AnalyzeYieldCtx(ctx, e, PaperParams(), yieldSuiteSpec())
			},
		},
	})
}

// TestNilEngineMisuse: every engine-accepting entry point reports a
// nil engine as a clean error.
func TestNilEngineMisuse(t *testing.T) {
	ctx := context.Background()
	m := NewEnergyModel(2)
	if _, err := m.OptimalSpacingCtx(ctx, nil, 0.1, 0.3); err == nil {
		t.Error("OptimalSpacingCtx(nil) did not error")
	}
	if _, err := m.SweepCtx(ctx, nil, 0.1, 0.3, 4); err == nil {
		t.Error("SweepCtx(nil) did not error")
	}
	if _, _, _, err := m.EnergySavingVsFixed(ctx, nil, 1.0, 0.1, 0.3); err == nil {
		t.Error("EnergySavingVsFixed(nil) did not error")
	}
	if _, err := AnalyzeYieldCtx(ctx, nil, PaperParams(), yieldSuiteSpec()); err == nil {
		t.Error("AnalyzeYieldCtx(nil) did not error")
	}
	if _, err := paperUnit(t, 1).EvaluateBatch(ctx, nil, []float64{0.5}, 64); err == nil {
		t.Error("Unit.EvaluateBatch(nil) did not error")
	}
}
