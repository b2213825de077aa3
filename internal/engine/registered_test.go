package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// These tests pin, by name, the wrapped engines every package's suite
// replays on beside the two built-ins: the members of
// enginetest.Engines().

// suiteEngine returns the member of enginetest.Engines() called name.
func suiteEngine(t *testing.T, name string) engine.Engine {
	t.Helper()
	for _, e := range enginetest.Engines() {
		if e.Name() == name {
			return e
		}
	}
	t.Fatalf("enginetest.Engines() has no %q engine", name)
	return nil
}

// TestChaosRegistered: the suite's chaos engine reorders work but
// never panics, so every suite can replay on it.
func TestChaosRegistered(t *testing.T) {
	e := suiteEngine(t, "chaos")
	c, ok := e.(*enginetest.Chaos)
	if !ok {
		t.Fatalf("suite chaos is %T, want *enginetest.Chaos", e)
	}
	if c.Spec().Panic {
		t.Error("suite chaos injects panics; it must stay recoverable")
	}
	if c.Spec().DropProb <= 0 {
		t.Error("suite chaos drops nothing; it stresses no reordering")
	}
}

// TestLimitedRegistered: the suite's limited engine is a 2-slot
// *engine.Limited, so every suite runs under a contended slot cap.
func TestLimitedRegistered(t *testing.T) {
	e := suiteEngine(t, "limited")
	l, ok := e.(*engine.Limited)
	if !ok {
		t.Fatalf("suite limited engine is %T, want *engine.Limited", e)
	}
	if l.Slots() != 2 {
		t.Fatalf("suite limited engine has %d slots, want 2", l.Slots())
	}
}
