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
	cases := []enginetest.Case{
		{
			Name: "image.GammaVideoPerFrameOn",
			Eval: func(e engine.Engine) (any, error) {
				return GammaVideoPerFrameOn(e, videoFrames(), 0.45, 6, 0.3, 256, 9, nil)
			},
		},
		{
			Name: "image.GammaVideoCtx",
			Eval: func(e engine.Engine) (any, error) {
				return GammaVideoCtx(context.Background(), e, videoFrames(), 0.45, 6, 0.3, 256, 9, nil)
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

// TestNilEngineMisuse: all three entry points report a nil engine as a
// clean error (they all have error returns).
func TestNilEngineMisuse(t *testing.T) {
	src := Checkerboard(8, 8, 2, 0, 255)
	if _, err := RobertsCrossSCOn(nil, src, 64, 1); err == nil {
		t.Error("RobertsCrossSCOn(nil) did not error")
	}
	frames := []*Gray{Gradient(8, 8)}
	if _, err := GammaVideoCtx(context.Background(), nil, frames, 0.45, 6, 0.3, 64, 1, nil); err == nil {
		t.Error("GammaVideoCtx(nil) did not error")
	}
	if _, err := GammaVideoPerFrameOn(nil, frames, 0.45, 6, 0.3, 64, 1, nil); err == nil {
		t.Error("GammaVideoPerFrameOn(nil) did not error")
	}
}
