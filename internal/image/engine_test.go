package image

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// TestEngineSuite registers every engine-accepting entry point of this
// package into the generic cross-engine equivalence and
// GOMAXPROCS-determinism suite, replacing the former per-path
// MatchesSerial / GOMAXPROCSDeterminism tests. The edge cases keep the
// ragged geometries of the old table: odd dimensions and
// non-word-multiple stream lengths exercise tile remainders and plane
// tails.
func TestEngineSuite(t *testing.T) {
	ctx := context.Background()
	gammaSrc := Gradient(64, 4)
	cases := []enginetest.Case{
		{
			Name: "image.GammaVideoCtx",
			Eval: func(e engine.Engine) (any, error) {
				return GammaVideoCtx(ctx, e, videoFrames(), 0.45, 6, 0.3, 256, 9, nil)
			},
		},
		{
			Name: "image.GammaReSC",
			Eval: func(e engine.Engine) (any, error) {
				return GammaReSC(ctx, e, gammaSrc, 0.45, 6, 100, 9)
			},
		},
		{
			Name: "image.GammaOptical",
			Eval: func(e engine.Engine) (any, error) {
				return GammaOptical(ctx, e, gammaSrc, 0.45, 6, 0.3, 100, 9)
			},
		},
		{
			Name: "image.GammaLUTCache.OpticalLUT",
			Eval: func(e engine.Engine) (any, error) {
				var cache GammaLUTCache
				return cache.OpticalLUT(ctx, e, 0.45, 6, 0.3, 256, 9)
			},
		},
	}
	for _, tc := range []struct {
		name            string
		w, h, streamLen int
		seed            uint64
	}{
		{"16x16", 16, 16, 1024, 9},
		{"ragged-tiles", 21, 13, 100, 3}, // stream tail, ragged tiles
		{"one-word", 33, 9, 64, 77},      // exactly one word
		{"single-bit", 5, 30, 1, 5},      // single-bit streams
		{"example", 64, 64, 2048, 7},     // the example's configuration
	} {
		tc := tc
		cases = append(cases, enginetest.Case{
			Name: "image.RobertsCrossSCOn/" + tc.name,
			Eval: func(e engine.Engine) (any, error) {
				src := Checkerboard(tc.w, tc.h, 4, 40, 210)
				return RobertsCrossSCOn(e, src, tc.streamLen, tc.seed)
			},
		})
	}
	enginetest.Run(t, nil, cases)
}

// TestNilEngineMisuse: every entry point reports a nil engine as a
// clean error (they all have error returns).
func TestNilEngineMisuse(t *testing.T) {
	ctx := context.Background()
	src := Checkerboard(8, 8, 2, 0, 255)
	if _, err := RobertsCrossSCOn(nil, src, 64, 1); err == nil {
		t.Error("RobertsCrossSCOn(nil) did not error")
	}
	frames := []*Gray{Gradient(8, 8)}
	if _, err := GammaVideoCtx(ctx, nil, frames, 0.45, 6, 0.3, 64, 1, nil); err == nil {
		t.Error("GammaVideoCtx(nil) did not error")
	}
	if _, err := GammaReSC(ctx, nil, src, 0.45, 6, 64, 1); err == nil {
		t.Error("GammaReSC(nil) did not error")
	}
	if _, err := GammaOptical(ctx, nil, src, 0.45, 6, 0.3, 64, 1); err == nil {
		t.Error("GammaOptical(nil) did not error")
	}
	var cache GammaLUTCache
	if _, err := cache.OpticalLUT(ctx, nil, 0.45, 6, 0.3, 64, 1); err == nil {
		t.Error("OpticalLUT(nil) did not error")
	}
}
