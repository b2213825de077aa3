// Package engine is the pluggable evaluation-engine layer: a small
// interface over "run n independent, index-addressed work items" that
// every sweep, study and image batch in this repo dispatches through.
// Two engines are built in — Serial, the in-order reference
// implementation, and WordParallel, the internal/parallel worker pool
// the word-parallel migration runs on — and every entry point takes
// its engine (and, when it dispatches under cancellation, its context)
// from the caller:
//
//	pts, err := transient.BERWaterfallCtx(ctx, engine.WordParallel, base, powers, bits, seed)
//	ref, err := transient.BERWaterfallCtx(ctx, engine.Serial, base, powers, bits, seed) // the oracle
//
// A study dispatches on its engine at one level only. A sweep item
// that fans out again runs that inner fan-out on engine.Serial, so an
// item never waits for a slot of a Limited engine it already holds.
//
// # The determinism contract
//
// An Engine is a scheduler, not a randomness source. Any Engine — the
// built-ins, a future bipolar or nanocavity backend, a remote shard —
// must satisfy the contract that makes results engine-independent:
//
//   - Exactly once: For(n, fn) and ForWorker(n, workers, fn) call fn
//     for every index in [0, n) exactly once, and return only after
//     every call has completed. No index may be skipped, duplicated,
//     or left in flight.
//   - Index-derived randomness: which goroutine runs which index is
//     the engine's business, so work functions must derive any
//     randomness from the index alone — stochastic.DeriveSeed(base, i)
//     — never from worker identity, shared generators, or the clock.
//     (The detrand lint rule enforces this at the call sites.)
//   - Index-ordered aggregation: engines impose no execution order;
//     callers write results to out[i] and reduce in index order, so
//     floating-point sums fold identically under any scheduling.
//   - O(workers) scratch: ForWorker's worker argument is in
//     [0, workers) and each concurrent goroutine owns a distinct
//     worker index for the duration of the call, so callers may
//     address per-worker scratch without locks. Workers(n) reports the
//     pool size the engine will use for n items, so scratch can be
//     sized before the fan-out; callers pass that same count back to
//     ForWorker.
//
// Any implementation holding those four properties produces results
// bit-identical to engine.Serial. That is not left to inspection: new
// engines register once (Register) and the generic
// enginetest.Run suite — one registration per package, covering every
// engine-accepting entry point — replays each path on every registered
// engine at GOMAXPROCS 1 and 4 against the Serial reference.
//
// Single-stream paths (transient.Simulator.TraceCtx, MeasureEyeOn)
// consume one sequential noise stream and cannot fan out; they run
// their walk as a single work item, so every conforming engine emits
// the identical waveform and the suite still catches engines that
// violate exactly-once dispatch.
//
// Chunked batches cheap per-item work into contiguous index ranges
// (at most Workers ranges, each at least minChunk items) so paths
// whose items are a few microseconds — the OptimalSpacingCtx
// bracketing scan — pay per-chunk rather than per-item dispatch
// overhead. With one worker (or one chunk) it degrades to the pure
// serial walk.
//
// # Cancellation, checkpointing, and fault injection
//
// Long sweeps are interruptible without giving up the contract. An
// engine may implement CtxEngine (both built-ins do) to dispatch
// under a context: ForCtx/ForWorkerCtx stop handing out items at the
// next item boundary once the context fires — items never run
// partially, are never re-run, and a worker panic surfaces as a typed
// *parallel.PanicError naming the faulting index instead of crashing
// the process. Engines without the ctx methods are adapted
// transparently (a per-item poll around the plain dispatch), so every
// registered engine is cancellable. RunCtx wraps an interruption in
// *Partial: the per-index Done bitmap and Completed count that tell a
// caller exactly which items finished — the unit of resumability
// dse.Checkpointer builds on (periodic durable snapshots, fail-closed
// key hashing, resume re-runs only the missing indices with
// bit-identical reassembly; oscbench -fig yield -checkpoint/-resume).
//
// Because "stops cleanly and resumes bit-identically" is a claim
// about failure paths, it is tested under injected faults: Chaos
// wraps any inner engine and — deterministically, from a seed —
// drops-then-retries items, delays them, or panics at a chosen index,
// while still satisfying the exactly-once contract when configured
// recoverably (the registered "chaos" engine runs the full enginetest
// suite like any backend). enginetest.RunChaos replays every entry
// point under recoverable chaos (must match the Serial reference
// bit-for-bit) and under an injected panic (must surface a typed
// error or panic that names the fault — silently swallowing it fails
// the suite).
//
// # Sharding
//
// Index-derived randomness also makes sweeps distributable: because
// item i's result never depends on which process ran it, a sweep can
// split across machines by index alone. Shard{K, N, Inner} wraps any
// engine and dispatches only the indices shard K of N owns (i%N == K,
// or contiguous blocks with Contiguous), bit-identical to the full
// run on the owned subset. A shard deliberately breaks exactly-once
// over [0, n) — it is exactly-once over its slice — so its ctx
// dispatch reports the unowned remainder through the normal Partial
// machinery with ErrShardRemainder as the cause and the Done bitmap
// equal to ownership; callers (dse.Checkpointer, oscbench -shard,
// /v1/yield's shard/of fields) treat that as "my share is complete"
// and assemble shards back into a full study with cmd/oscmerge or
// ShardUnion. The registered "sharded" engine is a ShardUnion of
// three round-robin shards over WordParallel: the union restores
// exactly-once coverage, so it passes the full enginetest suite —
// gapped or overlapping unions are the teeth fixtures that prove the
// suite would catch a wrong split.
package engine
