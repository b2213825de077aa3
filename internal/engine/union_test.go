package engine_test

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// TestShardsOfUnionCoversExactlyOnce: the complete family's union runs
// every index exactly once — the reassembly identity the "sharded"
// engine of enginetest.Engines() carries into every package's suite.
func TestShardsOfUnionCoversExactlyOnce(t *testing.T) {
	u, err := enginetest.NewShardUnion("t", enginetest.ShardsOf(engine.Serial, 4)...)
	if err != nil {
		t.Fatal(err)
	}
	const n = 21
	counts := make([]int, n)
	if err := engine.ForCtx(context.Background(), u, n, func(i int) { counts[i]++ }); err != nil {
		t.Errorf("complete-family ForCtx = %v, want nil (remainders are internal)", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Errorf("ForCtx: index %d ran %d times, want 1", i, c)
		}
	}
}

// TestNewShardUnionFailsClosed: empty lists and invalid members are
// rejected at construction.
func TestNewShardUnionFailsClosed(t *testing.T) {
	if _, err := enginetest.NewShardUnion("t"); err == nil {
		t.Error("empty union accepted")
	}
	if _, err := enginetest.NewShardUnion("t", engine.Shard{K: 2, N: 2, Inner: engine.Serial}); err == nil {
		t.Error("invalid member shard accepted")
	}
}
