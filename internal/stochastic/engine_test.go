package stochastic_test

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/stochastic"
)

// TestEngineSuite registers the package's engine-accepting entry point
// into the generic cross-engine equivalence and GOMAXPROCS-determinism
// suite. It lives in the external test package because enginetest
// itself imports stochastic.
func TestEngineSuite(t *testing.T) {
	poly := stochastic.NewBernstein([]float64{0.1, 0.4, 0.7, 0.9})
	xs := []float64{0, 0.1, 0.5, 0.9, 1, 0.33, 0.66}
	enginetest.Run(t, nil, []enginetest.Case{
		{
			Name: "stochastic.EvaluateBatch",
			Eval: func(e engine.Engine) (any, error) {
				// A non-word-multiple length exercises the stream tail.
				return stochastic.EvaluateBatch(context.Background(), e, poly, xs, 777, 31)
			},
		},
	})
}
