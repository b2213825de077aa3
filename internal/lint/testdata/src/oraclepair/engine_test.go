package oraclepair

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// TestEngineSuite registers RegisteredOn into the cross-engine suite —
// the pattern the oraclepair suite check requires for every
// engine-accepting entry point.
func TestEngineSuite(t *testing.T) {
	enginetest.Run(t, nil, []enginetest.Case{{
		Name: "oraclepair.RegisteredOn",
		Eval: func(e engine.Engine) (any, error) { return RegisteredOn(e, 8) },
	}, {
		Name: "oraclepair.RegisteredLimitedOn",
		Eval: func(e engine.Engine) (any, error) {
			return RegisteredLimitedOn(engine.NewLimited("fixture", e, 2), 8)
		},
	}})
}
