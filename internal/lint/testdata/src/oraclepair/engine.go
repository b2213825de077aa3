// Package oraclepair is an analyzer fixture: engine-accepting entry
// points registered in the cross-engine suite (clean) next to ones
// nothing registers (flagged).
package oraclepair

import (
	"context"

	"repro/internal/engine"
)

// RegisteredOn is an engine-accepting entry point registered in the
// cross-engine suite: engine_test.go carries an enginetest.Case for it
// inside an enginetest.Run call, so it passes the suite check.
func RegisteredOn(e engine.Engine, n int) ([]int, error) {
	out := make([]int, n)
	err := engine.ForCtx(context.Background(), e, n, func(i int) { out[i] = i * i })
	return out, err
}

// UnregisteredOn takes an Engine but no test file registers it into
// the enginetest suite — nothing ever replays it across engines.
func UnregisteredOn(e engine.Engine, n int) ([]int, error) { // want oraclepair
	out := make([]int, n)
	err := engine.ForCtx(context.Background(), e, n, func(i int) { out[i] = i + 1 })
	return out, err
}

// MentionedOn is referenced from mention_test.go — but that file never
// calls enginetest.Run, so a bare mention does not satisfy the suite
// check.
func MentionedOn(e engine.Engine, n int) ([]int, error) { // want oraclepair
	out := make([]int, n)
	err := engine.ForCtx(context.Background(), e, n, func(i int) { out[i] = i * 3 })
	return out, err
}

// LimitedOn takes a concrete engine wrapper rather than the Engine
// interface — it still fans work out, so the suite check applies, and
// nothing registers it.
func LimitedOn(l *engine.Limited, n int) ([]int, error) { // want oraclepair
	out := make([]int, n)
	err := engine.ForCtx(context.Background(), l, n, func(i int) { out[i] = i * 5 })
	return out, err
}

// RegisteredLimitedOn is the conforming concrete-wrapper entry point:
// engine_test.go registers it into the cross-engine suite.
func RegisteredLimitedOn(l *engine.Limited, n int) ([]int, error) {
	out := make([]int, n)
	err := engine.ForCtx(context.Background(), l, n, func(i int) { out[i] = i * 7 })
	return out, err
}

// unexportedOn is below the rule's scope: unexported entry points are
// implementation detail.
func unexportedOn(e engine.Engine, n int) ([]int, error) {
	out := make([]int, n)
	err := engine.ForCtx(context.Background(), e, n, func(i int) { out[i] = -i })
	return out, err
}

var _ = unexportedOn
