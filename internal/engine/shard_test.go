package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestShardOwnershipPartitions: round-robin ownership is total and
// disjoint — every index of a sweep is owned by exactly one shard of
// the family, for shard counts that divide the range and ones that
// don't.
func TestShardOwnershipPartitions(t *testing.T) {
	for _, total := range []int{0, 1, 2, 7, 33, 64} {
		for _, n := range []int{1, 2, 3, 5} {
			owners := make([]int, total)
			for i := range owners {
				owners[i] = -1
			}
			for k := 0; k < n; k++ {
				sh := Shard{K: k, N: n, Inner: Serial}
				for i := 0; i < total; i++ {
					if !sh.Owns(i, total) {
						continue
					}
					if owners[i] != -1 {
						t.Fatalf("total=%d n=%d: index %d owned by shards %d and %d",
							total, n, i, owners[i], k)
					}
					owners[i] = k
				}
			}
			for i, k := range owners {
				if k == -1 {
					t.Fatalf("total=%d n=%d: index %d owned by no shard",
						total, n, i)
				}
			}
		}
	}
}

// TestShardOwnsRejectsOutOfRange: indices outside [0, total) are never
// owned, so a stale index can't sneak into a shard's slice.
func TestShardOwnsRejectsOutOfRange(t *testing.T) {
	sh := Shard{K: 0, N: 3, Inner: Serial}
	if sh.Owns(-3, 10) {
		t.Error("Owns(-3, 10) = true, want false")
	}
	if sh.Owns(12, 10) {
		t.Error("Owns(12, 10) = true, want false")
	}
}

// TestShardForRunsOwnedIndicesOnce: dispatch runs exactly the owned
// indices, exactly once, with and without worker identity, leaves the
// rest untouched and reports them as ErrShardRemainder.
func TestShardForRunsOwnedIndicesOnce(t *testing.T) {
	const n = 20
	sh := Shard{K: 1, N: 3, Inner: WordParallel}
	for name, dispatch := range map[string]func(visit func(i int)) error{
		"ForCtx": func(visit func(int)) error { return ForCtx(context.Background(), sh, n, visit) },
		"ForWorkerCtx": func(visit func(int)) error {
			return sh.ForWorkerCtx(context.Background(), n, sh.Workers(n), func(_, i int) { visit(i) })
		},
	} {
		counts := make([]int32, n)
		if err := dispatch(func(i int) { atomic.AddInt32(&counts[i], 1) }); !errors.Is(err, ErrShardRemainder) {
			t.Errorf("%s: err = %v, want ErrShardRemainder", name, err)
		}
		for i, c := range counts {
			want := int32(0)
			if sh.Owns(i, n) {
				want = 1
			}
			if c != want {
				t.Errorf("%s: index %d ran %d times, want %d", name, i, c, want)
			}
		}
	}
}

// TestShardValidate pins the malformed-spec errors the CLI surfaces.
func TestShardValidate(t *testing.T) {
	cases := []struct {
		name string
		sh   Shard
		ok   bool
	}{
		{"valid", Shard{K: 0, N: 1, Inner: Serial}, true},
		{"valid-last", Shard{K: 2, N: 3, Inner: Serial}, true},
		{"k==n", Shard{K: 3, N: 3, Inner: Serial}, false},
		{"negative-k", Shard{K: -1, N: 2, Inner: Serial}, false},
		{"zero-n", Shard{K: 0, N: 0, Inner: Serial}, false},
		{"nil-inner", Shard{K: 0, N: 2}, false},
	}
	for _, c := range cases {
		err := c.sh.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
		}
	}
}

// TestShardForCtxReportsRemainderAsPartial: the ctx face reports the
// skipped non-owned indices through RunCtx as a *Partial wrapping
// ErrShardRemainder, with the Done bitmap marking exactly the owned
// indices — the contract the checkpoint and merge layers build on.
func TestShardForCtxReportsRemainderAsPartial(t *testing.T) {
	const n = 10
	sh := Shard{K: 2, N: 3, Inner: WordParallel}
	got := make([]int, n)
	err := RunCtx(context.Background(), sh, n, nil, func(i int) { got[i] = i + 1 })
	var p *Partial
	if !errors.As(err, &p) {
		t.Fatalf("RunCtx error = %v, want *Partial", err)
	}
	if !errors.Is(err, ErrShardRemainder) {
		t.Fatalf("RunCtx error = %v, want to wrap ErrShardRemainder", err)
	}
	owned := 0
	for i := 0; i < n; i++ {
		if sh.Owns(i, n) {
			owned++
		}
		if p.Done[i] != sh.Owns(i, n) {
			t.Errorf("Done[%d] = %v, want %v", i, p.Done[i], sh.Owns(i, n))
		}
		want := 0
		if sh.Owns(i, n) {
			want = i + 1
		}
		if got[i] != want {
			t.Errorf("item %d = %d, want %d", i, got[i], want)
		}
	}
	if p.N != n || p.Completed != owned {
		t.Errorf("Partial = %d/%d completed, want %d/%d", p.Completed, p.N, owned, n)
	}
}

// TestShardForCtxFullCoverageSucceeds: a 1-of-1 shard owns everything
// and returns nil, not a remainder.
func TestShardForCtxFullCoverageSucceeds(t *testing.T) {
	sh := Shard{K: 0, N: 1, Inner: Serial}
	ran := 0
	if err := ForCtx(context.Background(), sh, 5, func(int) { ran++ }); err != nil {
		t.Fatalf("ForCtx = %v, want nil", err)
	}
	if ran != 5 {
		t.Fatalf("ran %d items, want 5", ran)
	}
}

// TestShardForCtxPropagatesCancellation: a real interruption inside the
// owned slice surfaces as the context error, not as a remainder.
func TestShardForCtxPropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sh := Shard{K: 0, N: 2, Inner: Serial}
	err := ForCtx(ctx, sh, 8, func(int) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrShardRemainder) {
		t.Fatal("cancellation must not masquerade as a shard remainder")
	}
}

// TestShardForCtxInvalidSpecReturnsError: a malformed spec (K >= N,
// negative K, no inner engine) dispatched through ForCtx or RunCtx
// returns its Validate error, runs nothing and never panics — Workers
// included — so the CLI path fails typed.
func TestShardForCtxInvalidSpecReturnsError(t *testing.T) {
	for _, sh := range []Shard{
		{K: 3, N: 3, Inner: Serial},
		{K: -1, N: 2, Inner: Serial},
		{K: 0, N: 2},
	} {
		want := sh.Validate()
		if want == nil {
			t.Fatalf("%+v validates", sh)
		}
		if w := sh.Workers(4); w < 1 {
			t.Errorf("%s: Workers(4) = %d, want >= 1", sh.Name(), w)
		}
		ran := func(i int) { t.Errorf("%s ran item %d", sh.Name(), i) }
		if err := ForCtx(context.Background(), sh, 4, ran); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: ForCtx = %v, want %v", sh.Name(), err, want)
		}
		err := RunCtx(context.Background(), sh, 4, nil, ran)
		var p *Partial
		if !errors.As(err, &p) || p.Completed != 0 || p.Cause.Error() != want.Error() {
			t.Errorf("%s: RunCtx = %v, want a *Partial with no completions caused by %v", sh.Name(), err, want)
		}
	}
}

// TestAsShard: value and pointer shards unwrap; anything else doesn't.
func TestAsShard(t *testing.T) {
	sh := Shard{K: 1, N: 2, Inner: Serial}
	if got, ok := AsShard(sh); !ok || got != sh {
		t.Errorf("AsShard(value) = %v, %v", got, ok)
	}
	if got, ok := AsShard(&sh); !ok || got != sh {
		t.Errorf("AsShard(pointer) = %v, %v", got, ok)
	}
	if _, ok := AsShard(Serial); ok {
		t.Error("AsShard(Serial) = true, want false")
	}
	if _, ok := AsShard((*Shard)(nil)); ok {
		t.Error("AsShard(nil *Shard) = true, want false")
	}
}

// TestShardWorkersAtLeastOne: even a shard that owns nothing at small n
// reports a usable pool size, per the Workers contract.
func TestShardWorkersAtLeastOne(t *testing.T) {
	sh := Shard{K: 2, N: 3, Inner: WordParallel}
	if w := sh.Workers(2); w < 1 {
		t.Fatalf("Workers(2) = %d, want >= 1", w)
	}
}
