package transient

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// TestEngineSuite registers every engine-accepting entry point of this
// package into the generic cross-engine equivalence and
// GOMAXPROCS-determinism suite: every engine in enginetest.Engines()
// must reproduce the engine.Serial reference bit-identically.
func TestEngineSuite(t *testing.T) {
	base, powers := waterfallPowers(t)
	ctx := context.Background()
	enginetest.Run(t, nil, []enginetest.Case{
		{
			Name: "transient.Simulator.EvaluateBatch",
			Eval: func(e engine.Engine) (any, error) {
				// Noisy link so per-trial noise streams matter.
				return hotSim(t, 55).EvaluateBatch(ctx, e, []float64{0, 0.2, 0.5, 0.9, 1, 0.5}, 300)
			},
		},
		{
			Name: "transient.AccuracyVsLengthCtx",
			Eval: func(e engine.Engine) (any, error) {
				s := newTestSim(t, 0, 80)
				// Degenerate lengths (0, duplicates of word edges)
				// exercise the valid-length filter.
				return s.AccuracyVsLengthCtx(ctx, e, 0.5, []int{1, 63, 64, 0, 65, 300}, 5)
			},
		},
		{
			Name: "transient.BERWaterfallCtx",
			Eval: func(e engine.Engine) (any, error) {
				return BERWaterfallCtx(ctx, e, base, powers, 20_000, 41)
			},
		},
		{
			Name: "transient.TraceCtx",
			Eval: func(e engine.Engine) (any, error) {
				// Fresh simulator per call: the trace advances the
				// unit SNGs and the noise stream.
				s := newTestSim(t, 0, 75)
				return s.TraceCtx(ctx, e, 0.5, 65, 4)
			},
		},
		{
			Name: "transient.MeasureEyeCtx",
			Eval: func(e engine.Engine) (any, error) {
				s := newTestSim(t, 0, 72)
				return s.MeasureEyeCtx(ctx, e, 0.5, 1000)
			},
		},
	})
}

// TestWaterfallCtxCancellation: a canceled waterfall surfaces the
// sweep layer's typed partial error instead of a curve.
func TestWaterfallCtxCancellation(t *testing.T) {
	base, powers := waterfallPowers(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BERWaterfallCtx(ctx, engine.WordParallel, base, powers, 1000, 41)
	var p *engine.Partial
	if !errors.As(err, &p) {
		t.Fatalf("err = %v (%T), want *engine.Partial", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Partial does not carry context.Canceled: %v", err)
	}
}

// TestNilEngineMisuse: every entry point rejects a nil engine with an
// error instead of panicking.
func TestNilEngineMisuse(t *testing.T) {
	s := newTestSim(t, 0, 99)
	ctx := context.Background()
	if _, err := s.AccuracyVsLengthCtx(ctx, nil, 0.5, []int{64}, 1); err == nil {
		t.Error("AccuracyVsLengthCtx(nil) did not error")
	}
	base, powers := waterfallPowers(t)
	if _, err := BERWaterfallCtx(ctx, nil, base, powers, 100, 1); err == nil {
		t.Error("BERWaterfallCtx(nil) did not error")
	}
	if _, err := s.TraceCtx(ctx, nil, 0.5, 4, 2); err == nil {
		t.Error("TraceCtx(nil) did not error")
	}
	if _, err := s.MeasureEyeCtx(ctx, nil, 0.5, 16); err == nil {
		t.Error("MeasureEyeCtx(nil) did not error")
	}
	if _, err := s.EvaluateBatch(ctx, nil, []float64{0.5}, 16); err == nil {
		t.Error("EvaluateBatch(nil) did not error")
	}
}
