package engine

import (
	"context"
	"errors"
	"fmt"
)

// ErrShardRemainder reports that a sharded dispatch completed every
// index it owns and deliberately skipped the rest. It is the expected
// "failure" of a Shard-wrapped sweep: RunCtx wraps it in a *Partial
// whose Done bitmap marks exactly the owned indices, so checkpointing
// layers persist the shard's slice of the study and a merge step (or a
// resume on the union of shard snapshots) reassembles the whole run
// bit-identically. Callers distinguish it from a real interruption with
// errors.Is.
var ErrShardRemainder = errors.New("engine: shard dispatch complete; non-owned indices skipped")

// Shard is the distributing wrapper engine: it filters an n-item
// dispatch down to the indices shard K of N owns and runs only those on
// the inner engine, preserving the index-ordered, bit-identical
// semantics of every item it runs. Because the sweeps in this repo
// derive all per-item randomness from the item index
// (stochastic.DeriveSeed), any index subset computes the same values it
// would in a full run — which is what makes every engine-accepting
// entry point shardable across processes or machines with no per-path
// code.
//
// Ownership is round-robin (i % N == K, which balances any sweep
// shape). The partition is total and disjoint across K = 0..N-1, so
// the union of all N shards covers every index exactly once.
//
// A Shard deliberately breaks the "every index runs exactly once"
// engine contract for the indices it does not own: it leaves them
// untouched (zero-valued results) and reports them through
// ErrShardRemainder, so RunCtx-based sweeps surface a *Partial with
// the owned indices marked Done. A bare Shard therefore cannot pass
// the enginetest suite; its "sharded" engine is a union of a full
// shard family, which restores the contract and proves reassembly
// equals the Serial reference.
type Shard struct {
	// K is this shard's id in [0, N); N is the total shard count.
	K, N int
	// Inner runs the owned indices; it sees a dense [0, owned) dispatch
	// and must satisfy the usual engine contract for it.
	Inner Engine
}

// Validate reports a malformed shard spec: K out of [0, N), N < 1, or
// a missing inner engine.
func (s Shard) Validate() error {
	if s.N < 1 {
		return fmt.Errorf("engine: shard %d/%d: need at least 1 shard", s.K, s.N)
	}
	if s.K < 0 || s.K >= s.N {
		return fmt.Errorf("engine: shard %d/%d: shard index must be in [0, %d)", s.K, s.N, s.N)
	}
	if s.Inner == nil {
		return fmt.Errorf("engine: shard %d/%d has no inner engine", s.K, s.N)
	}
	return nil
}

// Name implements Engine.
func (s Shard) Name() string {
	inner := "nil"
	if s.Inner != nil {
		inner = s.Inner.Name()
	}
	return fmt.Sprintf("shard(%d/%d,%s)", s.K, s.N, inner)
}

// Owns reports whether this shard owns index i of a total-item sweep.
// An index outside [0, total) is never owned.
func (s Shard) Owns(i, total int) bool {
	if i < 0 || (total >= 0 && i >= total) {
		return false
	}
	return i%s.N == s.K
}

// owned lists the indices of [0, n) this shard owns, ascending — the
// dense sub-range the inner engine dispatches.
func (s Shard) owned(n int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, 0, n/s.N+1)
	for i := s.K; i < n; i += s.N {
		out = append(out, i)
	}
	return out
}

// Workers implements Engine: the inner pool size for the owned item
// count (at least 1, per the contract, even when this shard owns
// nothing). A malformed spec reports 1 and leaves the error to
// ForWorkerCtx.
func (s Shard) Workers(n int) int {
	if s.Validate() != nil {
		return 1
	}
	return max(1, s.Inner.Workers(len(s.owned(n))))
}

// ForWorkerCtx implements Engine for the owned indices: they dispatch
// on the inner engine under ctx, and a run that finishes them all
// while skipping non-owned ones returns ErrShardRemainder — which
// RunCtx turns into a *Partial whose Done bitmap marks exactly the
// owned indices. A malformed spec returns its Validate error.
func (s Shard) ForWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if err := s.Validate(); err != nil {
		return err
	}
	owned := s.owned(n)
	if err := s.Inner.ForWorkerCtx(ctx, len(owned), workers, func(w, j int) { fn(w, owned[j]) }); err != nil {
		return err
	}
	if len(owned) < n {
		return ErrShardRemainder
	}
	return nil
}

// AsShard unwraps an engine selection to its Shard when the outermost
// wrapper is one (value or pointer) — the hook shard-aware layers like
// dse.Checkpointer use to filter by true item index before dispatching
// on the inner engine.
func AsShard(e Engine) (Shard, bool) {
	switch sh := e.(type) {
	case Shard:
		return sh, true
	case *Shard:
		if sh != nil {
			return *sh, true
		}
	}
	return Shard{}, false
}
