package transient

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// Cross-engine equivalence and GOMAXPROCS determinism for the
// fanned-out paths in this package live in engine_test.go, which
// registers every engine-accepting entry point into the generic
// enginetest suite. This file keeps the behavioral tests and the
// benchmarks.

// waterfallPowers returns a small probe-power range spanning
// measurable BERs for the paper circuit.
func waterfallPowers(t testing.TB) (core.Params, []float64) {
	base := core.PaperParams()
	c := core.MustCircuit(base)
	p1 := c.MinProbePowerMW(1e-1)
	p3 := c.MinProbePowerMW(1e-3)
	return base, []float64{p1, (p1 + p3) / 2, p3}
}

// TestAccuracyVsLengthRepeatable: the study derives its randomness
// from the simulator's seed alone — it no longer advances the
// simulator's generators, so repeated calls return identical points
// and interleaved evaluations are unaffected.
func TestAccuracyVsLengthRepeatable(t *testing.T) {
	s := newTestSim(t, 0, 82)
	first, err := s.AccuracyVsLengthCtx(context.Background(), engine.WordParallel, 0.5, []int{64, 256}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.EvaluateWords(0.5, 128); err != nil {
		t.Fatal(err)
	}
	second, err := s.AccuracyVsLengthCtx(context.Background(), engine.WordParallel, 0.5, []int{64, 256}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated calls differ: %+v vs %+v", first, second)
	}
}

func BenchmarkTrace(b *testing.B) {
	s := hotSim(b, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.TraceCtx(context.Background(), engine.WordParallel, 0.5, 1024, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBERWaterfall(b *testing.B) {
	base, powers := waterfallPowers(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BERWaterfallCtx(context.Background(), engine.WordParallel, base, powers, 20_000, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccuracyVsLength(b *testing.B) {
	s := hotSim(b, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.AccuracyVsLengthCtx(context.Background(), engine.WordParallel, 0.5, []int{256, 1024}, 8); err != nil {
			b.Fatal(err)
		}
	}
}
