package enginetest

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
)

// ShardsOf builds the complete round-robin shard family over inner:
// n shards whose ownership partitions any index range exactly. The
// family's union (ShardUnion) satisfies the full engine contract.
func ShardsOf(inner engine.Engine, n int) []engine.Shard {
	inner = engine.Use(inner)
	if n < 1 {
		panic(fmt.Sprintf("enginetest: ShardsOf needs n >= 1 shards, got %d", n))
	}
	out := make([]engine.Shard, n)
	for k := range out {
		out[k] = engine.Shard{K: k, N: n, Inner: inner}
	}
	return out
}

// ShardUnion dispatches every one of its shards in order — the
// in-process composition of a distributed run, and the proof obligation
// behind it: when the shards are a complete family (ShardsOf), every
// index runs exactly once and the union satisfies the full determinism
// contract, so the "sharded" engine of Engines() passes the generic
// suite. The constructor deliberately does not check coverage: a union
// over a gapped or overlapping shard list is exactly the broken
// composition the teeth fixtures (and oscmerge's fail-closed merge)
// must catch.
type ShardUnion struct {
	name   string
	shards []engine.Shard
}

// NewShardUnion builds a union over the given shards. Each shard must
// validate individually; the list must be non-empty.
func NewShardUnion(name string, shards ...engine.Shard) (*ShardUnion, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("enginetest: NewShardUnion %q: no shards", name)
	}
	for _, sh := range shards {
		if err := sh.Validate(); err != nil {
			return nil, fmt.Errorf("enginetest: NewShardUnion %q: %w", name, err)
		}
	}
	return &ShardUnion{name: name, shards: shards}, nil
}

// Name implements engine.Engine.
func (u *ShardUnion) Name() string { return u.name }

// Workers implements engine.Engine: the widest pool any member shard
// uses.
func (u *ShardUnion) Workers(n int) int {
	w := 1
	for _, sh := range u.shards {
		w = max(w, sh.Workers(n))
	}
	return w
}

// ForWorkerCtx implements engine.Engine by running each shard's slice
// in turn. Each member's ErrShardRemainder is its normal completion —
// the union is responsible for the whole range only through the family
// it was built from, and a gap a partial family leaves is the suite's
// (or merge layer's) to catch.
func (u *ShardUnion) ForWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	for _, sh := range u.shards {
		if err := sh.ForWorkerCtx(ctx, n, workers, fn); err != nil && !errors.Is(err, engine.ErrShardRemainder) {
			return err
		}
	}
	return nil
}
